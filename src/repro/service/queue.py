"""The service core: dedup registry + bounded queue + batched dispatch.

This module is HTTP-free — :class:`ScenarioService` is the whole
behaviour of the scenario service against plain Python objects, which is
what the property tests exercise directly; :mod:`repro.service.server`
is a thin wire adapter over it.

Dedup invariant (the "a million identical users cost one simulation"
contract): at any moment there is **at most one** execution per cache
key.  :meth:`submit` is a synchronous method called from the event
loop, so the check-registry/insert-entry sequence can never interleave
with another submission — concurrent identical submissions coalesce
onto the same :class:`RunEntry` and share its result.  Completed
entries answer later submissions from memory; entries evicted from the
bounded registry still answer from the on-disk content-addressed cache.

Backpressure invariant: the queue of accepted-but-not-dispatched runs
is bounded.  A submission that would exceed the bound raises
:class:`~repro.errors.QueueFullError` (HTTP 429) *at submission time*;
once accepted, a run is never dropped — it completes, fails with its
execution error, or faults with
:class:`~repro.errors.ServiceShutdownError` when the service stops
without draining.

Group commit: whenever the dispatcher is idle it hands every pending
run (up to ``max_group``) to :meth:`ExperimentRunner.map` at once, and
runs that arrive while that call executes form the next group.  A lone
submission is dispatched without waiting; a burst that queues behind a
running group still rides one :class:`~repro.sim.batch.BatchSimulation`
tick loop (the runner's ``plan_units`` grouping) exactly as CLI sweeps
do.  The blocking runner call executes on a worker thread; the event
loop stays responsive for submissions and polls while a group
simulates.
"""

from __future__ import annotations

import asyncio
from collections import deque
from time import perf_counter
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import (
    QueueFullError,
    ReproError,
    RunExecutionError,
    ServiceShutdownError,
)
from ..runner import ExperimentRunner, RunRequest, cache_key
from ..sim import RunResult
from ..sim.results import result_to_dict
from .metrics import ServiceMetrics

#: Run lifecycle states, in order.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

#: States a run never leaves.
TERMINAL_STATES = frozenset({DONE, FAILED})


class RunEntry:
    """One content-addressed run the service knows about.

    An entry is shared by every submission of the same request: the
    first submission creates it, later ones attach to it.  ``done``
    is an :class:`asyncio.Event` set exactly once, on the transition
    into a terminal state.
    """

    __slots__ = ("key", "request", "status", "result", "error_code",
                 "error_message", "submissions", "done")

    def __init__(self, key: str, request: RunRequest,
                 status: str = QUEUED) -> None:
        self.key = key
        self.request = request
        self.status = status
        self.result: Optional[RunResult] = None
        self.error_code: Optional[str] = None
        self.error_message: Optional[str] = None
        self.submissions = 1
        self.done = asyncio.Event()

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL_STATES

    def snapshot(self, include_result: bool = True) -> Dict[str, Any]:
        """JSON-compatible view of the run (poll/stream responses)."""
        view: Dict[str, Any] = {
            "key": self.key,
            "status": self.status,
            "submissions": self.submissions,
        }
        if self.status == FAILED:
            view["error"] = {"code": self.error_code,
                             "message": self.error_message}
        if include_result and self.status == DONE:
            assert self.result is not None
            view["result"] = result_to_dict(self.result)
        return view


#: The blocking execution hook: a request batch in, aligned results out.
#: Defaults to ``runner.map`` (cache + process pool + batch grouping);
#: tests inject counting/gated callables here.
RunBatch = Callable[[Sequence[RunRequest]], List[RunResult]]


class ScenarioService:
    """Deduplicating, backpressured front end over an experiment runner.

    Args:
        runner: Executes cache-missing work (and owns the on-disk
            result cache the submit fast path probes).
        max_queue: Bound on accepted-but-not-dispatched runs; beyond it
            submissions raise :class:`QueueFullError`.
        max_group: Largest burst handed to one ``runner.map`` call (the
            upper bound on one batched group's lane count).
        max_done: Completed entries kept in memory for registry hits;
            older ones are evicted (their results remain in the on-disk
            cache).
        run_batch: Override of the blocking execution hook (tests).
    """

    def __init__(self, runner: ExperimentRunner,
                 max_queue: int = 256,
                 max_group: int = 64,
                 max_done: int = 4096,
                 run_batch: Optional[RunBatch] = None) -> None:
        self.runner = runner
        self.max_queue = max_queue
        self.max_group = max_group
        self.max_done = max_done
        self.metrics = ServiceMetrics()
        self._run_batch: RunBatch = (run_batch if run_batch is not None
                                     else runner.map)
        self._entries: Dict[str, RunEntry] = {}
        self._pending: Deque[RunEntry] = deque()
        self._done_order: Deque[str] = deque()
        self._wake = asyncio.Event()
        self._change = asyncio.Event()
        self._accepting = True
        self._draining = False
        self._dispatcher: Optional[asyncio.Task] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start the dispatch loop on the running event loop."""
        if self._dispatcher is None:
            self._dispatcher = asyncio.get_running_loop().create_task(
                self._dispatch_loop())

    async def shutdown(self, drain: bool = True) -> None:
        """Stop accepting work and settle every accepted run.

        With ``drain=True`` (graceful) queued and in-flight runs all
        execute to completion first.  With ``drain=False`` queued runs
        fault immediately with :class:`ServiceShutdownError`; the run
        currently executing (if any) still completes — a blocking
        simulation on a worker thread cannot be safely interrupted.
        Either way, after this returns every accepted run is terminal.
        """
        self._accepting = False
        if not drain:
            while self._pending:
                entry = self._pending.popleft()
                self._fail(entry, ServiceShutdownError(
                    "service shut down before this run was dispatched"))
            self.metrics.queue_depth = 0
        self._draining = True
        self._wake.set()
        if self._dispatcher is not None:
            await self._dispatcher
            self._dispatcher = None

    @property
    def accepting(self) -> bool:
        return self._accepting

    # ------------------------------------------------------------------
    # Change notification (poll/stream waiters)
    # ------------------------------------------------------------------

    @property
    def change_event(self) -> asyncio.Event:
        """Set (and replaced) whenever any run changes state.

        Waiters grab the current event, re-read the state they care
        about, and await it; the swap-then-set order guarantees a
        change between the read and the wait cannot be missed.
        """
        return self._change

    def _mark_changed(self) -> None:
        event, self._change = self._change, asyncio.Event()
        event.set()

    # ------------------------------------------------------------------
    # Submission (synchronous: atomic with respect to the event loop)
    # ------------------------------------------------------------------

    def submit(self, request: RunRequest) -> Tuple[RunEntry, bool]:
        """Register one submission; returns ``(entry, created)``.

        ``created`` is True only when this submission put a *new* run
        on the queue; otherwise the entry was answered by the registry,
        the on-disk cache, or an identical in-flight run.

        Raises:
            ServiceShutdownError: The service no longer accepts work.
            QueueFullError: The bounded queue is at capacity.
        """
        if not self._accepting:
            raise ServiceShutdownError(
                "service is shutting down; submissions are closed")
        key = cache_key(request)
        self.metrics.submissions += 1

        entry = self._entries.get(key)
        if entry is not None:
            entry.submissions += 1
            if entry.terminal:
                self.metrics.registry_hits += 1
            else:
                self.metrics.coalesced += 1
            return entry, False

        if self.runner.cache is not None:
            cached = self.runner.cache.get(key)
            if cached is not None:
                entry = RunEntry(key, request, status=DONE)
                entry.result = cached
                entry.done.set()
                self._remember(entry)
                self.metrics.cache_hits += 1
                return entry, False

        if len(self._pending) >= self.max_queue:
            self.metrics.rejected += 1
            raise QueueFullError(
                f"work queue is full ({self.max_queue} runs pending); "
                f"retry later", retry_after_s=self.retry_after_s())

        entry = RunEntry(key, request)
        self._entries[key] = entry
        self._pending.append(entry)
        self.metrics.accepted += 1
        self.metrics.queue_depth = len(self._pending)
        self._wake.set()
        self._mark_changed()
        return entry, True

    def get(self, key: str) -> Optional[RunEntry]:
        """The registry entry for ``key``, or None if never seen/evicted."""
        return self._entries.get(key)

    def retry_after_s(self) -> float:
        """Backpressure hint: estimated seconds until capacity frees up.

        Scales with queue depth and the observed per-run wall time; a
        cold service (nothing measured yet) suggests one second.
        """
        per_run_s = self.metrics.avg_run_wall_s or 0.0
        if per_run_s <= 0.0:
            return 1.0
        depth = len(self._pending) + self.metrics.in_flight
        return min(60.0, max(0.1, depth * per_run_s / max(
            1, self.runner.effective_jobs)))

    def stats(self) -> Dict[str, Any]:
        """The ``GET /stats`` payload."""
        view = self.metrics.snapshot()
        view["queue_depth"] = len(self._pending)
        view["registry_entries"] = len(self._entries)
        view["max_queue"] = self.max_queue
        view["accepting"] = self._accepting
        view["runner"] = {
            "jobs": self.runner.effective_jobs,
            "cache": (str(self.runner.cache.directory)
                      if self.runner.cache is not None else None),
            "batch": self.runner.batch,
            "hits": self.runner.hits,
            "misses": self.runner.misses,
            "batched": self.runner.batched,
            "coalesced": self.runner.coalesced,
        }
        return view

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _remember(self, entry: RunEntry) -> None:
        """Keep a terminal entry for registry hits, within the bound."""
        self._entries[entry.key] = entry
        self._trim_done(entry.key)

    def _trim_done(self, key: str) -> None:
        """Record ``key`` as terminal and evict beyond ``max_done``.

        Evicted results are not lost — the on-disk cache still answers
        them; eviction only bounds the in-memory registry.
        """
        self._done_order.append(key)
        while len(self._done_order) > self.max_done:
            stale_key = self._done_order.popleft()
            stale = self._entries.get(stale_key)
            if stale is not None and stale.terminal:
                del self._entries[stale_key]

    def _fail(self, entry: RunEntry, error: ReproError) -> None:
        entry.status = FAILED
        entry.error_code = type(error).__name__
        entry.error_message = str(error)
        entry.done.set()
        self.metrics.failed += 1
        self._trim_done(entry.key)
        self._mark_changed()

    def _complete(self, entry: RunEntry, result: RunResult) -> None:
        entry.status = DONE
        entry.result = result
        entry.done.set()
        self.metrics.executed += 1
        self._trim_done(entry.key)
        self._mark_changed()

    async def _dispatch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            if not self._pending:
                if self._draining:
                    break
                self._wake.clear()
                await self._wake.wait()
                continue
            group: List[RunEntry] = []
            while self._pending and len(group) < self.max_group:
                group.append(self._pending.popleft())
            self.metrics.queue_depth = len(self._pending)
            self.metrics.in_flight = len(group)
            for entry in group:
                entry.status = RUNNING
            self._mark_changed()
            start_s = perf_counter()
            try:
                results = await loop.run_in_executor(
                    None, self._run_batch,
                    [entry.request for entry in group])
            except ReproError as error:
                for entry in group:
                    self._fail(entry, error)
            except Exception as error:  # repro: noqa[RPR301] — a worker
                # crash (pickle failure, pool death, engine bug) must
                # fault this group's runs, not kill the dispatch loop
                # and hang every later submission.
                wrapped = RunExecutionError(
                    f"execution failed: {type(error).__name__}: {error}")
                for entry in group:
                    self._fail(entry, wrapped)
            else:
                wall_s = perf_counter() - start_s
                if group:
                    self.metrics.observe_run_wall_s(wall_s / len(group))
                for entry, result in zip(group, results):
                    self._complete(entry, result)
            finally:
                self.metrics.in_flight = 0


__all__ = [
    "DONE",
    "FAILED",
    "QUEUED",
    "RUNNING",
    "RunEntry",
    "ScenarioService",
    "TERMINAL_STATES",
]
