"""Lane-parallel server-cluster state for the batched engine.

:class:`BatchCluster` carries N independent clusters as (lanes, servers)
arrays and advances them with the exact per-server semantics of
:class:`~repro.server.cluster.ServerCluster` /
:class:`~repro.server.server.Server`.  States and sources are small int8
codes; the rare divergent operations (LRU shedding, restarts) run as
per-lane Python over only the lanes that need them, accumulating in the
same sequential order as the scalar methods.

All lanes must share one :class:`~repro.config.ServerConfig` (validated
by the batch simulation), so the busy threshold and restart constants
are plain Python floats — per-lane arrays would buy nothing.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..config import ServerConfig

# Server-state codes (order matters nowhere; values are arbitrary).
STATE_ON = 0
STATE_OFF = 1
STATE_RESTARTING = 2

# Power-source codes, shared with the batch scheduler and relay fabric.
SOURCE_UTILITY = 0
SOURCE_SUPERCAP = 1
SOURCE_BATTERY = 2
SOURCE_NONE = 3


class BatchCluster:
    """N server clusters advanced in lockstep.

    Args:
        n: Number of scenario lanes.
        num_servers: Servers per cluster (equal across lanes).
        server: The shared per-server configuration.
    """

    def __init__(self, n: int, num_servers: int,
                 server: ServerConfig) -> None:
        self.n = n
        self.num_servers = num_servers
        self.server_config = server
        self.busy_threshold_w = server.idle_power_w * 1.05
        if server.restart_duration_s > 0:
            self.restart_draw_w = (server.restart_energy_j
                                   / server.restart_duration_s)
        else:
            self.restart_draw_w = 0.0
        self.restart_duration_s = server.restart_duration_s
        self.idle_power_w = server.idle_power_w

        shape = (n, num_servers)
        self.state = np.full(shape, STATE_ON, dtype=np.int8)
        self.source = np.full(shape, SOURCE_UTILITY, dtype=np.int8)
        self.last_active_s = np.zeros(shape)
        self.downtime_s = np.zeros(shape)
        self.restart_remaining_s = np.zeros(shape)
        self.restart_count = np.zeros(shape, dtype=np.int64)
        self.restart_energy_used_j = np.zeros(shape)
        # Steady-state flag: True while every server in every lane is ON,
        # which lets the tick loop skip all divergence handling.
        self._all_on = True

    # -- cached views ---------------------------------------------------

    @property
    def all_on(self) -> bool:
        return self._all_on

    def _refresh_all_on(self) -> None:
        self._all_on = not (self.state != STATE_ON).any()

    def powered_mask(self) -> np.ndarray:
        """(lanes, servers) mask of servers that are not OFF."""
        return self.state != STATE_OFF

    def off_mask(self) -> np.ndarray:
        return self.state == STATE_OFF

    def num_off(self) -> np.ndarray:
        """(lanes,) count of OFF servers."""
        return np.count_nonzero(self.state == STATE_OFF, axis=1)

    def draw_array(self, demands_w: np.ndarray) -> np.ndarray:
        """Per-server draws for a (lanes, servers) demand slice.

        With every server ON the demands are the draws and the input is
        returned as-is (callers treat it as read-only) — the same values
        the scalar fast path yields per lane.
        """
        if self._all_on:
            return demands_w
        return np.where(
            self.state == STATE_OFF, 0.0,
            np.where(self.state == STATE_RESTARTING,
                     self.restart_draw_w, demands_w))

    # -- relay control --------------------------------------------------

    def assign_sources(self, sources: np.ndarray) -> None:
        """Apply a (lanes, servers) source-code plan; OFF servers keep
        their NONE source, exactly like the scalar guard.

        With every server ON the plan is adopted by reference — it may
        be the scheduler's shared read-only template, so the mutating
        shed/restart paths copy-on-write first.
        """
        if self._all_on:
            self.source = sources
            return
        self.source = np.where(self.state == STATE_OFF,
                               self.source, sources).astype(np.int8)

    def _own_source(self) -> None:
        """Ensure ``source`` is a private writable array before mutating."""
        if not self.source.flags.writeable:
            self.source = self.source.copy()

    # -- shutdown / restart (per-lane divergent paths) ------------------

    def shed_lru_lane(self, lane: int, power_needed_w: float,
                      demands_w: np.ndarray,
                      from_sources: Tuple[int, ...]) -> List[int]:
        """Scalar ``ServerCluster.shed_lru`` for one lane.

        Returns the shed server ids in shed order (the caller re-sums
        their draws exactly as the engine does).
        """
        if power_needed_w <= 0:
            return []
        self._own_source()
        state_row = self.state[lane]
        source_row = self.source[lane]
        last_row = self.last_active_s[lane]
        candidates = [
            sid for sid in range(self.num_servers)
            if state_row[sid] == STATE_ON and source_row[sid] in from_sources]
        candidates.sort(key=lambda sid: (last_row[sid], sid))
        shed: List[int] = []
        freed = 0.0
        for sid in candidates:
            if freed >= power_needed_w - 1e-9:
                break
            freed += float(demands_w[lane, sid])
            state_row[sid] = STATE_OFF
            source_row[sid] = SOURCE_NONE
            shed.append(sid)
        if shed:
            self._all_on = False
        return shed

    def restart_offline_lane(self, lane: int,
                             available_power_w: float) -> List[float]:
        """Scalar ``ServerCluster.restart_offline`` for one lane.

        Returns the ``needed`` power of each restarted server in restart
        order; the caller subtracts them from its headroom sequentially,
        mirroring the engine's separate post-restart deduction.
        """
        self._own_source()
        state_row = self.state[lane]
        source_row = self.source[lane]
        needed_list: List[float] = []
        budget = available_power_w
        for sid in range(self.num_servers):
            if state_row[sid] != STATE_OFF:
                continue
            restart_power = (self.restart_draw_w
                             if self.restart_duration_s > 0 else 0.0)
            needed = max(restart_power, self.idle_power_w)
            if needed <= budget:
                state_row[sid] = STATE_RESTARTING
                source_row[sid] = SOURCE_UTILITY
                self.restart_count[lane, sid] += 1
                self.restart_remaining_s[lane, sid] = self.restart_duration_s
                budget -= needed
                needed_list.append(needed)
        return needed_list

    # -- per-tick bookkeeping -------------------------------------------

    def tick(self, dt: float, now_s: float,
             demands_w: np.ndarray) -> None:
        """Advance every server's bookkeeping by one step.

        ``demands_w`` holds the workload demands (not draws), exactly
        what the engine hands the scalar ``ServerCluster.tick``.
        """
        if self._all_on:
            # Every server is ON: the state check is vacuous and the
            # LRU timestamps update in place.
            np.copyto(self.last_active_s, now_s,
                      where=demands_w > self.busy_threshold_w)
            return
        busy = ((self.state == STATE_ON)
                & (demands_w > self.busy_threshold_w))
        self.last_active_s = np.where(busy, now_s, self.last_active_s)
        off = self.state == STATE_OFF
        restarting = self.state == STATE_RESTARTING
        down = off | restarting
        self.downtime_s = np.where(down, self.downtime_s + dt,
                                   self.downtime_s)
        self.restart_energy_used_j = np.where(
            restarting,
            self.restart_energy_used_j + self.restart_draw_w * dt,
            self.restart_energy_used_j)
        self.restart_remaining_s = np.where(
            restarting, self.restart_remaining_s - dt,
            self.restart_remaining_s)
        done = restarting & (self.restart_remaining_s <= 0)
        if done.any():
            self.state = np.where(done, STATE_ON, self.state).astype(np.int8)
            self.restart_remaining_s = np.where(
                done, 0.0, self.restart_remaining_s)
            self._refresh_all_on()

    # -- per-lane reporting ---------------------------------------------

    def total_downtime_lanes(self) -> np.ndarray:
        """(lanes,) downtime sums, accumulated in server-index order
        like the scalar ``sum()``."""
        total = np.zeros(self.n)
        for sid in range(self.num_servers):
            total = total + self.downtime_s[:, sid]
        return total

    def total_restart_energy_lane(self, lane: int) -> float:
        total = 0.0
        row = self.restart_energy_used_j[lane]
        # Index-order accumulation matches the scalar sum().
        for sid in range(self.num_servers):
            total += float(row[sid])
        return total

    def total_restarts_lane(self, lane: int) -> int:
        return int(self.restart_count[lane].sum())


__all__ = [
    "BatchCluster",
    "SOURCE_BATTERY",
    "SOURCE_NONE",
    "SOURCE_SUPERCAP",
    "SOURCE_UTILITY",
    "STATE_OFF",
    "STATE_ON",
    "STATE_RESTARTING",
]
