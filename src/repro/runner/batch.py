"""Grouping compatible run requests onto the batched engine.

The runner's contract is per-request: content-addressed cache keys,
request-order results, bit-identical numbers.  This module preserves all
of that while routing *compatible* cache misses through one
:class:`~repro.sim.batch.BatchSimulation` tick loop instead of N scalar
loops:

* requests group by (duration, slot length) — the tick/slot grid the
  batched engine requires scenarios to share; fault-injected requests
  group like any other (each lane carries its own injector).  The rest
  of the engine's compatibility check (tick length, cluster width,
  server configuration, no profiler) holds for every request, so a
  group it rejects raises instead of switching engines;
* singleton groups run the plain scalar path — batching is a grouping
  optimization, never a behaviour change.

Because batched results are exactly equal to scalar results per
scenario, cache entries written by either path are interchangeable.

Duplicate keys never reach :func:`plan_units`: the runner claims cache
misses per key before planning (see :meth:`ExperimentRunner.map`), so a
group cannot contain two lanes of the same request racing to write one
cache entry.  ``plan_units`` itself is deliberately duplicate-tolerant —
two identical requests would simply occupy two lanes and produce two
identical results — so callers that bypass the runner stay correct,
just not deduplicated.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from ..config import ControllerConfig
from ..sim import RunResult
from ..sim.batch import BatchSimulation
from .request import RunRequest, build_simulation, execute_request

#: A work unit the (possibly multi-process) executor runs: either one
#: scalar request or one batched group.
ExecutionUnit = Tuple[str, Tuple[RunRequest, ...]]


def group_key(request: RunRequest) -> Tuple[float, float]:
    """The shared tick/slot grid a batched group must agree on."""
    controller = request.controller or ControllerConfig()
    return (request.setup.duration_h, controller.slot_seconds)


def plan_units(requests: Sequence[RunRequest],
               workers: int = 1) -> Tuple[List[ExecutionUnit],
                                          List[List[int]]]:
    """Partition ``requests`` into execution units.

    Returns ``(units, positions)`` where ``positions[i]`` lists, for
    unit ``i``, each member's index into ``requests`` (unit results are
    scattered back through it, so request order is preserved).

    With ``workers > 1`` groups are split into up to ``workers``
    contiguous chunks so batching composes with process parallelism
    instead of serializing it; chunking never changes any result.
    """
    groups: Dict[Tuple[float, float], List[int]] = {}
    singles: List[int] = []
    for index, request in enumerate(requests):
        groups.setdefault(group_key(request), []).append(index)

    units: List[ExecutionUnit] = []
    positions: List[List[int]] = []

    def emit(kind: str, indices: List[int]) -> None:
        units.append((kind, tuple(requests[i] for i in indices)))
        positions.append(indices)

    for indices in groups.values():
        if len(indices) < 2:
            singles.extend(indices)
            continue
        chunk = max(2, math.ceil(len(indices) / max(1, workers)))
        for start in range(0, len(indices), chunk):
            part = indices[start:start + chunk]
            if len(part) < 2:
                singles.extend(part)
            else:
                emit("group", part)
    for index in singles:
        emit("single", [index])
    return units, positions


def execute_request_group(requests: Sequence[RunRequest]
                          ) -> List[RunResult]:
    """Execute a compatible group through one batched tick loop.

    Results align with ``requests`` and are exactly what
    :func:`execute_request` would have produced.  A group the batched
    engine rejects raises
    :class:`~repro.errors.BatchCompatibilityError`.
    """
    return BatchSimulation([build_simulation(request)
                            for request in requests]).run_all()


def execute_unit(unit: ExecutionUnit) -> List[RunResult]:
    """Top-level (picklable) entry point for pool workers."""
    kind, payload = unit
    if kind == "single":
        return [execute_request(payload[0])]
    return execute_request_group(payload)


__all__ = [
    "ExecutionUnit",
    "execute_request_group",
    "execute_unit",
    "group_key",
    "plan_units",
]
