"""Lane-parallel power-path components for the batched engine.

:class:`BatchFabric` replaces the scalar engine's apply/skip relay
machinery with unconditional per-tick diff counting: the scalar path
skips an apply only when the source tuple and cluster state are both
unchanged — ticks on which an apply would have moved zero relays — so
counting position changes every tick yields the identical
``total_switches`` per lane.

:class:`BatchIPDU` meters per-lane energy with the scalar IPDU's
outlet-order accumulation.  It keeps no reading history: nothing in a
run's result reads the scalar IPDU's ring, and a ring of per-tick row
references would pin a slot's worth of draw rows in memory.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

#: Relay-position codes: UTILITY=0, STORAGE=1, OPEN=2.
POSITION_UTILITY = 0
POSITION_STORAGE = 1
POSITION_OPEN = 2

#: Source code -> relay position: UTILITY -> UTILITY, SUPERCAP/BATTERY
#: -> STORAGE, NONE -> OPEN (``Simulation._actuate_relays``).
_SOURCE_TO_POSITION = np.array(
    [POSITION_UTILITY, POSITION_STORAGE, POSITION_STORAGE, POSITION_OPEN],
    dtype=np.int8)


class BatchFabric:
    """N relay banks; every relay starts on UTILITY with zero switches."""

    def __init__(self, n: int, num_relays: int) -> None:
        self.positions = np.full((n, num_relays), POSITION_UTILITY,
                                 dtype=np.int8)
        self.switches = np.zeros(n, dtype=np.int64)
        self._last_sources: Optional[np.ndarray] = None

    def apply_sources(self, sources: np.ndarray) -> None:  # repro: noqa[RPR602] the batch twin actuates from the scheduler's source-code plan and maps sources->positions itself; the scalar 'positions' list has no lane analogue
        """Actuate from a (lanes, servers) source-code plan.

        Re-applying the identical *immutable* plan object (the
        scheduler's shared all-utility template) moves zero relays by
        construction, so the steady state costs one identity check.
        Mutable plan arrays never hit this path: a fresh array arrives
        each tick, and the remembered one is only trusted when it is
        read-only.
        """
        if (sources is self._last_sources
                and not sources.flags.writeable):
            return
        target = _SOURCE_TO_POSITION[sources]
        diff = target != self.positions
        if diff.any():
            self.switches += np.count_nonzero(diff, axis=1)
            self.positions = target
        self._last_sources = sources

    def total_switches_lane(self, lane: int) -> int:
        return int(self.switches[lane])


class BatchIPDU:
    """N intelligent PDUs metering (lanes, outlets) draws per tick."""

    def __init__(self, n: int, num_outlets: int) -> None:
        self.n = n
        self.num_outlets = num_outlets
        self.energy_metered_j = np.zeros(n)

    def record_array(self, timestamp_s: float, draws_w: np.ndarray,
                     dt: float, total_w: Optional[np.ndarray] = None) -> None:
        """Meter one (lanes, outlets) sample.

        ``total_w`` may supply the outlet-order draw totals when the
        caller already holds them (the engine's precomputed per-tick
        demand totals, valid whenever draws equal raw demands).
        """
        # Outlet-order accumulation, then the single * dt, exactly like
        # the scalar ``sum(draws_w.tolist()) * dt``.
        if total_w is None:
            total_w = np.zeros(self.n)
            for outlet in range(self.num_outlets):
                total_w = total_w + draws_w[:, outlet]
        self.energy_metered_j = self.energy_metered_j + total_w * dt


__all__ = ["BatchFabric", "BatchIPDU", "POSITION_OPEN", "POSITION_STORAGE",
           "POSITION_UTILITY"]
