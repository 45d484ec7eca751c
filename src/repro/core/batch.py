"""Lane-parallel relay assignment for the batched engine.

:class:`BatchScheduler` computes, for N scenario lanes at once, exactly
what :func:`repro.core.scheduler.reference_assign` computes per lane —
the memoized fast paths in :class:`~repro.core.scheduler.LoadScheduler`
are pure caches of the reference semantics, so the batch path targets
the reference directly.

Exactness notes mirrored from the scalar code:

* totals accumulate column-by-column in server-index order (a masked
  running sum), never via ``np.sum`` whose pairwise tree reorders terms
  beyond 8 elements;
* the descending-demand order is a keyed *stable* argsort — identical
  tie-breaking to ``sorted(key=lambda i: (-demand[i], i))``, with
  unavailable servers keyed ``inf`` so they sort past every active one;
* the greedy cutoff runs as a rank loop with a monotone take mask
  (utility draw only decreases), so an early break when no lane takes
  a rank is safe;
* ``np.rint`` is round-half-even like Python's ``round``, so the SC
  pool split matches ``int(round(r_lambda * n_buffered))`` bit-for-bit.

The caller owns the per-slot invariants: ``r_lambda`` arrives already
clamped (with the scalar's NaN -> 1.0 quirk) because it is constant
within a slot, and ``available=None`` declares every server available —
both let the per-tick fast path skip work the slot boundary already
did.  On the all-within fast path the returned draw/count arrays are
shared read-only zeros and ``sources`` is a shared read-only
all-UTILITY template; consumers that mutate (the cluster's shed paths)
copy-on-write.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..server.batch import (SOURCE_BATTERY, SOURCE_NONE, SOURCE_SUPERCAP,
                            SOURCE_UTILITY)

_INF = float("inf")


class BatchAssignment:
    """One tick's relay plans for every lane.

    Attributes:
        sources: (lanes, servers) int8 source codes.
        utility_draw_w: (lanes,) demand left on the utility feed.
        sc_draw_w: (lanes,) demand assigned to the SC pool.
        battery_draw_w: (lanes,) demand assigned to the battery pool.
        n_buffered: (lanes,) servers moved off utility.
        all_utility: True when no lane buffered anything this tick —
            the draw/count arrays are all zero and buffer service can
            be skipped wholesale.
    """

    __slots__ = ("sources", "utility_draw_w", "sc_draw_w",
                 "battery_draw_w", "n_buffered", "all_utility")

    def __init__(self, sources: np.ndarray, utility_draw_w: np.ndarray,
                 sc_draw_w: np.ndarray, battery_draw_w: np.ndarray,
                 n_buffered: np.ndarray, all_utility: bool = False) -> None:
        self.sources = sources
        self.utility_draw_w = utility_draw_w
        self.sc_draw_w = sc_draw_w
        self.battery_draw_w = battery_draw_w
        self.n_buffered = n_buffered
        self.all_utility = all_utility


class BatchScheduler:
    """Stateless lane-parallel twin of :class:`LoadScheduler`."""

    def __init__(self, n: int, num_servers: int) -> None:
        self.n = n
        self.num_servers = num_servers
        self._zeros = np.zeros(n)
        self._zeros.setflags(write=False)
        self._zeros_i = np.zeros(n, dtype=np.int64)
        self._zeros_i.setflags(write=False)
        self._template = np.full((n, num_servers), SOURCE_UTILITY,
                                 dtype=np.int8)
        self._template.setflags(write=False)

    def assign(self,
               demands_w: np.ndarray,
               available: Optional[np.ndarray],
               budget_w: np.ndarray,
               r_lambda: np.ndarray,
               use_sc: np.ndarray,
               use_battery: np.ndarray,
               no_pools: Optional[np.ndarray] = None,
               total: Optional[np.ndarray] = None) -> BatchAssignment:
        """Relay plans for one tick across all lanes.

        Args:
            demands_w: (lanes, servers) per-server demand.
            available: (lanes, servers) availability mask, or ``None``
                when every server is available.
            budget_w: (lanes,) utility budgets.
            r_lambda: (lanes,) SC-pool fractions, already clamped to
                [0, 1] with the scalar's NaN -> 1.0 quirk.
            use_sc / use_battery: (lanes,) pool-usability masks.
            no_pools: optional precomputed ``~use_sc & ~use_battery``
                (constant within a slot).
            total: optional precomputed demand totals (valid only with
                ``available=None``); may be a read-through view the
                caller must not see mutated.
        """
        n, s = demands_w.shape
        if total is None:
            # Active total, accumulated in server-index order.
            total = np.zeros(n)
            if available is None:
                for j in range(s):
                    total = total + demands_w[:, j]
            else:
                for j in range(s):
                    total = total + np.where(available[:, j],
                                             demands_w[:, j], 0.0)

        if no_pools is None:
            no_pools = ~use_sc & ~use_battery
        within = (total <= budget_w) | no_pools
        if np.count_nonzero(within) == n:
            # The shared template never flows into the scatter path
            # below — this branch returns, and the mutable plan always
            # starts from a fresh array.
            return BatchAssignment(
                self._template if available is None
                else np.where(available, SOURCE_UTILITY,
                              SOURCE_NONE).astype(np.int8),
                total, self._zeros, self._zeros,
                self._zeros_i, all_utility=True)

        sources = np.where(available, SOURCE_UTILITY,
                           SOURCE_NONE).astype(np.int8) \
            if available is not None else \
            np.full((n, s), SOURCE_UTILITY, dtype=np.int8)
        utility_draw = total
        sc_draw = self._zeros
        battery_draw = self._zeros

        # Descending-demand order; unavailable servers key to +inf so
        # they sort after every active server and are never taken.
        if available is None:
            order = np.argsort(-demands_w, axis=-1, kind="stable")
            rank_avail = None
        else:
            order = np.argsort(np.where(available, -demands_w, _INF),
                               axis=-1, kind="stable")
            rank_avail = np.take_along_axis(available, order, axis=-1)
        rank_demand = np.take_along_axis(demands_w, order, axis=-1)

        over = ~within
        took = np.zeros((n, s), dtype=bool)
        for r in range(s):
            take = over & (utility_draw > budget_w)
            if rank_avail is not None:
                take = take & rank_avail[:, r]
            if not np.count_nonzero(take):
                break  # monotone: no lane will take a later rank either
            took[:, r] = take
            # demand * mask is the demand exactly on taken lanes and an
            # exact +0.0 elsewhere, and the draw never reaches -0.0, so
            # the unmasked subtract matches the masked update bitwise.
            utility_draw = utility_draw - rank_demand[:, r] * take
        n_buffered = took.sum(axis=1, dtype=np.int64)

        n_sc = np.where(
            ~use_sc, 0,
            np.where(~use_battery, n_buffered,
                     np.rint(r_lambda * n_buffered))).astype(np.int64)

        # Pool assembly in rank (descending-demand) order, matching the
        # scalar's buffered-order accumulation of each pool total.
        # The cross-lane rank count only bounds the loop; the per-lane
        # took_r masks keep lanes independent.
        ranks_taken = int(np.count_nonzero(
            np.count_nonzero(took, axis=0)))
        for r in range(ranks_taken):
            took_r = took[:, r]
            on_sc = took_r & (r < n_sc)
            on_ba = took_r ^ on_sc  # took & ~(r < n_sc)
            # Same exact demand-times-mask trick as the greedy cutoff.
            sc_draw = sc_draw + rank_demand[:, r] * on_sc
            battery_draw = battery_draw + rank_demand[:, r] * on_ba
            lanes_sc = np.flatnonzero(on_sc)
            if lanes_sc.size:
                sources[lanes_sc, order[lanes_sc, r]] = SOURCE_SUPERCAP
            lanes_ba = np.flatnonzero(on_ba)
            if lanes_ba.size:
                sources[lanes_ba, order[lanes_ba, r]] = SOURCE_BATTERY

        return BatchAssignment(sources, utility_draw, sc_draw,
                               battery_draw, n_buffered)


__all__ = ["BatchAssignment", "BatchScheduler"]
