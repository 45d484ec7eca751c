"""Parallel, cache-aware dispatch of independent experiment runs.

Every per-second simulation in the evaluation grid is independent of the
others, so the runner fans :class:`RunRequest` batches out over a
``ProcessPoolExecutor`` and (optionally) consults a content-addressed
:class:`~repro.runner.cache.ResultCache` first.  Results come back in
request order and are bit-for-bit identical to a serial in-process run,
because both paths share :func:`execute_request`.

The experiment modules don't take a runner argument; they route through
a module-level *active runner* (serial, cacheless by default) that the
CLI — or any caller — swaps via :func:`using_runner` / :func:`set_runner`.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence

from ..errors import ConfigurationError
from ..sim import RunResult
from .batch import execute_unit, plan_units
from .cache import ResultCache
from .keys import cache_key
from .request import RunRequest, execute_request


class ExperimentRunner:
    """Executes request batches with optional parallelism and caching.

    Args:
        jobs: Worker processes for cache misses; ``None`` means
            ``os.cpu_count()``.  With one job (or one miss) requests run
            serially in-process — no pool is spawned.
        cache: Result cache consulted before executing and updated
            after; ``None`` disables caching entirely.
        batch: Route compatible cache misses through the batched engine
            (one vectorized tick loop per group).  Results, cache keys,
            and request order are identical either way; disable to force
            one scalar tick loop per request.

    Attributes:
        hits / misses: Per-runner counters of cache outcomes (misses
            also count every request executed with caching disabled).
        batched: Requests executed via a batched group (a subset of
            ``misses``).
        coalesced: Duplicate cache-missing requests within one
            :meth:`map` call that shared another miss's execution
            instead of running again (see the dedup note on ``map``).
    """

    def __init__(self, jobs: Optional[int] = None,
                 cache: Optional[ResultCache] = None,
                 batch: bool = True) -> None:
        if jobs is not None and jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs!r}")
        self.jobs = jobs
        self.cache = cache
        self.batch = batch
        self.hits = 0
        self.misses = 0
        self.batched = 0
        self.coalesced = 0

    @property
    def effective_jobs(self) -> int:
        return self.jobs if self.jobs is not None else (os.cpu_count() or 1)

    def run(self, request: RunRequest) -> RunResult:
        """Execute (or fetch) a single request."""
        return self.map([request])[0]

    def map(self, requests: Sequence[RunRequest]) -> List[RunResult]:
        """Execute a batch; results align with ``requests`` by index.

        Identical requests in one batch execute **once**: the cache
        check and the execution decision used to be a check-then-act
        window — two misses on the same key both executed (and both
        wrote the cache) because neither could see the other.  Misses
        are now claimed by key: the first occurrence executes, later
        occurrences share its result (counted in ``coalesced``).  Two
        *separate* ``map`` calls racing on one key in different
        processes can still both execute — that window is benign
        (atomic cache writes, bit-identical bytes, last writer wins)
        and is closed in-process by the scenario service's in-flight
        registry (:mod:`repro.service.queue`).

        Every computed miss is written to the cache in one transaction
        (:meth:`~repro.runner.cache.ResultCache.put_many`) once the call
        has run them all.
        """
        requests = list(requests)
        results: List[Optional[RunResult]] = [None] * len(requests)
        keys: List[Optional[str]] = [None] * len(requests)
        miss_indices: List[int] = []
        claimed: Dict[str, int] = {}
        followers: Dict[int, List[int]] = {}

        if self.cache is not None:
            for index, request in enumerate(requests):
                key = cache_key(request)
                keys[index] = key
                cached = self.cache.get(key)
                if cached is not None:
                    results[index] = cached
                    self.hits += 1
                    continue
                leader = claimed.get(key)
                if leader is None:
                    claimed[key] = index
                    miss_indices.append(index)
                    self.misses += 1
                else:
                    followers.setdefault(leader, []).append(index)
                    self.coalesced += 1
        else:
            miss_indices = list(range(len(requests)))
            self.misses += len(requests)

        if miss_indices:
            workers = min(self.effective_jobs, len(miss_indices))
            pending = [requests[index] for index in miss_indices]
            if self.batch:
                units, unit_positions = plan_units(pending, workers=workers)
                self.batched += sum(len(positions)
                                    for (kind, _), positions
                                    in zip(units, unit_positions)
                                    if kind == "group")
                if workers > 1 and len(units) > 1:
                    with ProcessPoolExecutor(max_workers=workers) as pool:
                        unit_results = list(pool.map(execute_unit, units))
                else:
                    unit_results = [execute_unit(unit) for unit in units]
                computed: List[Optional[RunResult]] = [None] * len(pending)
                for positions, unit_result in zip(unit_positions,
                                                  unit_results):
                    for position, result in zip(positions, unit_result):
                        computed[position] = result
            elif workers > 1:
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    computed = list(pool.map(execute_request, pending))
            else:
                computed = [execute_request(request) for request in pending]
            for index, result in zip(miss_indices, computed):
                results[index] = result
                for duplicate in followers.get(index, ()):
                    results[duplicate] = result
            if self.cache is not None:
                self.cache.put_many([(keys[index], results[index])
                                     for index in miss_indices])

        return results  # type: ignore[return-value]


# ----------------------------------------------------------------------
# The active runner
# ----------------------------------------------------------------------

#: Serial and cacheless: library calls behave exactly like direct
#: in-process simulation unless a caller opts into more.
_DEFAULT_RUNNER = ExperimentRunner(jobs=1, cache=None)
_active_runner = _DEFAULT_RUNNER


def get_runner() -> ExperimentRunner:
    """The runner experiment modules currently route through."""
    return _active_runner


def set_runner(runner: Optional[ExperimentRunner]) -> None:
    """Install ``runner`` globally (None restores the serial default)."""
    global _active_runner
    _active_runner = runner if runner is not None else _DEFAULT_RUNNER


@contextmanager
def using_runner(runner: ExperimentRunner) -> Iterator[ExperimentRunner]:
    """Scope ``runner`` as the active runner for a ``with`` block."""
    previous = _active_runner
    set_runner(runner)
    try:
        yield runner
    finally:
        set_runner(previous)


def run_requests(requests: Sequence[RunRequest]) -> List[RunResult]:
    """Run a batch through the active runner (convenience)."""
    return get_runner().map(requests)
