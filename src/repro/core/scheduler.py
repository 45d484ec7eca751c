"""Turning an R_lambda ratio into per-server relay assignments.

The hControl "dynamically control[s] the on/off power switches to assign
different ratio servers powered by SCs or batteries" (Section 5.2).  The
scheduler decides, each tick:

1. *who leaves utility* — the smallest set of servers whose removal brings
   the remaining utility draw within budget (moving the hungriest servers
   first frees the most budget per switch);
2. *how the buffered set splits* — ``round(R_lambda * n_buffered)``
   servers to the SC pool (highest-demand first, because SCs tolerate
   high current), the rest to the battery pool.

The scheduler is called once per simulated tick, so the common cases are
memoized: the all-on-utility relay plan is cached per cluster size, and
the descending-demand sort order is reused across consecutive ticks with
identical demands (traces are piecewise-constant at sub-sample scale).
Every fast path is arithmetic-identical to the naive implementation —
totals are accumulated element-by-element in index order, never via
pairwise NumPy reductions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import SimulationError
from ..server.server import PowerSource
from ..units import clamp


@dataclass(frozen=True)
class Assignment:
    """One tick's relay plan.

    Attributes:
        sources: Per-server feed selection (index-aligned with servers).
        utility_draw_w: Total demand left on the utility feed.
        sc_draw_w: Total demand assigned to the SC pool.
        battery_draw_w: Total demand assigned to the battery pool.
        n_buffered: How many servers were moved off utility.
    """

    sources: tuple
    utility_draw_w: float
    sc_draw_w: float
    battery_draw_w: float
    n_buffered: int

    @property
    def buffered_draw_w(self) -> float:
        return self.sc_draw_w + self.battery_draw_w


class LoadScheduler:
    """Assignment logic shared by all policies.

    Semantically stateless — the only instance state is memoization of
    pure functions of the inputs, plus counters the profiler reports.
    """

    def __init__(self) -> None:
        self._all_utility_sources: Dict[int, tuple] = {}
        self._order_demands: Optional[List[float]] = None
        self._order: Optional[np.ndarray] = None
        self._last_mask: Optional[np.ndarray] = None
        self._last_mask_all = False
        self._cached_within_budget: Optional[Assignment] = None
        self._over_budget_key: Optional[tuple] = None
        self._over_budget_result: Optional[Assignment] = None
        #: Deterministic instrumentation, surfaced by ``--profile``.
        self.calls = 0
        self.within_budget_hits = 0
        self.order_reuses = 0

    def _everyone_available(self, available) -> bool:
        """``all(available)``, memoized by identity for immutable masks.

        The cluster hands the engine the *same* read-only ndarray until a
        server changes state, so one pointer comparison replaces a numpy
        reduction on the steady-state path.  Only non-writeable arrays
        are cached — a mutable sequence could change under the same id.
        """
        if isinstance(available, np.ndarray):
            if available is self._last_mask:
                return self._last_mask_all
            result = bool(available.all())
            if not available.flags.writeable:
                self._last_mask = available
                self._last_mask_all = result
            return result
        return all(available)

    def _all_utility(self, n: int) -> tuple:
        cached = self._all_utility_sources.get(n)
        if cached is None:
            cached = (PowerSource.UTILITY,) * n
            self._all_utility_sources[n] = cached
        return cached

    def _descending_order(self, demands: np.ndarray,
                          demands_list: List[float]) -> np.ndarray:
        """Indices in (-demand, index) order, reused while demands repeat.

        ``demands_list`` is the caller's fresh ``demands.tolist()`` (never
        mutated afterwards), so a plain list comparison detects repeats.
        """
        if self._order_demands == demands_list:
            self.order_reuses += 1
            assert self._order is not None
            return self._order
        # Stable argsort on the negated demands ties equal demands by
        # index — exactly sorted(key=lambda i: (-demands[i], i)).
        order = np.argsort(-demands, kind="stable")
        self._order_demands = demands_list
        self._order = order
        return order

    def assign(self,
               demands_w: Sequence[float],
               available: Sequence[bool],
               budget_w: float,
               r_lambda: float,
               use_sc: bool = True,
               use_battery: bool = True) -> Assignment:
        """Compute relay positions for one tick.

        Args:
            demands_w: Per-server demand (including restart power).
            available: Per-server availability flags; unavailable servers
                are never assigned a feed.
            budget_w: Utility power budget for this tick.
            r_lambda: Fraction of buffered servers on the SC pool.
            use_sc / use_battery: Which pools the scheme may touch (BaOnly
                systems have no SC pool).

        Returns:
            An :class:`Assignment`; if neither pool is usable all servers
            stay on utility (over-budget draw is the engine's problem to
            resolve by shedding).
        """
        if budget_w < 0:
            raise SimulationError("budget cannot be negative")
        if len(demands_w) != len(available):
            raise SimulationError("demands and availability length mismatch")
        self.calls += 1
        # Inlined clamp(r_lambda, 0.0, 1.0), including its NaN -> 1.0
        # quirk (min(1.0, nan) keeps 1.0), so the fast path stays
        # bit-identical to the reference implementation.
        if not (r_lambda < 1.0):
            r_lambda = 1.0
        elif r_lambda < 0.0:
            r_lambda = 0.0
        n = len(demands_w)

        if self._everyone_available(available):
            if isinstance(demands_w, np.ndarray):
                demands = demands_w
            else:
                demands = np.array(demands_w, dtype=float)
            demands_list = demands.tolist()
            # Element-by-element sum in index order: bit-identical to the
            # reference accumulation for any n (np.sum pairwise-reorders
            # beyond 8 terms).
            total = sum(demands_list)
            if total <= budget_w or not (use_sc or use_battery):
                self.within_budget_hits += 1
                cached = self._cached_within_budget
                # Bit-exact on purpose: the memo must only hit when the
                # input is literally identical.
                if (cached is not None
                        and cached.utility_draw_w == total  # repro: noqa[RPR104]
                        and len(cached.sources) == n):
                    return cached
                assignment = Assignment(
                    self._all_utility(n), total, 0.0, 0.0, 0)
                self._cached_within_budget = assignment
                return assignment
            # Full-result memo: with everyone available the assignment is
            # a pure function of these inputs, and piecewise-constant
            # traces repeat them across consecutive ticks.
            memo_key = (budget_w, r_lambda, use_sc, use_battery)
            if (self._over_budget_key is not None
                    and self._over_budget_key[0] == memo_key
                    and self._over_budget_key[1] == demands_list):
                assert self._over_budget_result is not None
                return self._over_budget_result
            order: Sequence[int] = self._descending_order(
                demands, demands_list)
            sources: List[PowerSource] = list(self._all_utility(n))
        else:
            memo_key = None
            active = [i for i in range(n) if available[i]]
            sources = [PowerSource.NONE] * n
            for i in active:
                sources[i] = PowerSource.UTILITY
            total = sum(float(demands_w[i]) for i in active)
            if total <= budget_w or not (use_sc or use_battery):
                self.within_budget_hits += 1
                return Assignment(tuple(sources), total, 0.0, 0.0, 0)
            order = sorted(active, key=lambda i: (-float(demands_w[i]), i))

        # Move the hungriest servers off utility until within budget.
        buffered: List[int] = []
        utility_draw = total
        for i in order:
            if utility_draw <= budget_w:
                break
            buffered.append(i)
            utility_draw -= float(demands_w[i])

        if not use_sc:
            n_sc = 0
        elif not use_battery:
            n_sc = len(buffered)
        else:
            n_sc = int(round(r_lambda * len(buffered)))
        # Highest-demand buffered servers go to SCs (they tolerate the
        # current); `buffered` is already in descending-demand order.
        sc_draw = battery_draw = 0.0
        for rank, i in enumerate(buffered):
            if rank < n_sc:
                sources[i] = PowerSource.SUPERCAP
                sc_draw += float(demands_w[i])
            else:
                sources[i] = PowerSource.BATTERY
                battery_draw += float(demands_w[i])

        assignment = Assignment(tuple(sources), utility_draw, sc_draw,
                                battery_draw, len(buffered))
        if memo_key is not None:
            self._over_budget_key = (memo_key, demands_list)
            self._over_budget_result = assignment
        return assignment


def reference_assign(demands_w: Sequence[float],
                     available: Sequence[bool],
                     budget_w: float,
                     r_lambda: float,
                     use_sc: bool = True,
                     use_battery: bool = True) -> Assignment:
    """The pre-optimization scheduler, kept verbatim as a test oracle.

    The property suite asserts :meth:`LoadScheduler.assign` returns
    bit-identical :class:`Assignment`\\ s to this on random inputs.
    """
    if budget_w < 0:
        raise SimulationError("budget cannot be negative")
    if len(demands_w) != len(available):
        raise SimulationError("demands and availability length mismatch")
    r_lambda = clamp(r_lambda, 0.0, 1.0)
    n = len(demands_w)
    sources: List[PowerSource] = [PowerSource.NONE] * n

    active = [i for i in range(n) if available[i]]
    for i in active:
        sources[i] = PowerSource.UTILITY
    total = sum(float(demands_w[i]) for i in active)

    if total <= budget_w or not (use_sc or use_battery):
        return Assignment(tuple(sources), total, 0.0, 0.0, 0)

    order = sorted(active, key=lambda i: (-float(demands_w[i]), i))
    buffered: List[int] = []
    utility_draw = total
    for i in order:
        if utility_draw <= budget_w:
            break
        buffered.append(i)
        utility_draw -= float(demands_w[i])

    if not use_sc:
        n_sc = 0
    elif not use_battery:
        n_sc = len(buffered)
    else:
        n_sc = int(round(r_lambda * len(buffered)))
    sc_set = frozenset(buffered[:n_sc])
    sc_draw = battery_draw = 0.0
    for i in buffered:
        if i in sc_set:
            sources[i] = PowerSource.SUPERCAP
            sc_draw += float(demands_w[i])
        else:
            sources[i] = PowerSource.BATTERY
            battery_draw += float(demands_w[i])

    return Assignment(tuple(sources), utility_draw, sc_draw,
                      battery_draw, len(buffered))


__all__: Tuple[str, ...] = ("Assignment", "LoadScheduler", "reference_assign")
