"""The batched multi-scenario engine: one tick loop, N scenarios.

:class:`BatchSimulation` advances N independent scalar
:class:`~repro.sim.engine.Simulation` scenarios through a single
vectorized tick loop, threading a leading *lane* axis through every
array the scalar engine already carries: per-server draws become
(lanes, servers), buffer wells and telemetry become (lanes,) columns,
and the metrics accumulator becomes (lanes,) running sums added in the
scalar's tick order.  Per-scenario divergence — policy branches, slot
plans, pool fallback, shedding, restarts — is handled by boolean lane
masks; the rare genuinely sequential paths (LRU shedding, restart
scans, slot closes) drop to per-lane Python only on the lanes that need
them.

Fault-injected scenarios batch like any other.  Each faulted lane keeps
the :class:`~repro.faults.FaultInjector` its scalar simulation was
built with, and :class:`BatchFaults` consults it at the scalar engine's
hook points — budget sag, pool reachability in assignment, fallback and
charging, SC leakage, persistent aging/ESR steps, sensor-noise
observations, per-class downtime attribution — but only on the ticks
where the lane's fault state can change.  Persistent steps run the
scalar device mutators on a written-back lane and re-hoist it, so the
fault semantics exist once.

``BatchSimulation([s1, ..., sN]).run_all()`` returns
:class:`~repro.sim.results.RunResult` objects **exactly equal** to
``[s1.run(), ..., sN.run()]``, per scenario.  The storage flows are
not transcribed: both engines run the kernels of
:mod:`repro.storage.kernels`.  The rest of this module is a lane-wise
transcription of the scalar engine, which stays its oracle, with
operand order, branch structure, and epsilon thresholds preserved;
where the scalar engine leans on Python semantics (selection
``min``/``max``, CPython ``**``, element-order sums) the batch path
replicates those semantics rather than substituting the NumPy
near-equivalent (see :mod:`repro.storage.kernels`).

The loop holds no per-tick history: demand is copied from the lanes'
traces a chunk of ticks at a time, and a slot close re-reads the slot's
demand totals from the traces.

Scenario sets must share the tick grid (trace length, ``dt``, slot
length) and the cluster shape, at any cluster width; anything else —
budgets, converter efficiencies, policies, workloads, buffer sizings,
supplies, fault schedules — may vary per lane.  Incompatible sets, and
sets carrying a tick profiler, raise
:class:`~repro.errors.BatchCompatibilityError`, which the batched
runner does not catch: a group that cannot share one loop fails loudly.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..core.batch import BatchScheduler
from ..core.peaks import PeakAnalysis, analyze_slots, expected_peak_duration_s
from ..core.policies.base import SlotObservation, SlotPlan, SlotResult
from ..errors import BatchCompatibilityError
from ..power.batch import BatchFabric, BatchIPDU
from ..server.batch import (SOURCE_SUPERCAP, SOURCE_UTILITY, BatchCluster,
                            SOURCE_BATTERY)
from ..storage.batch import BatchBattery, BatchLifetime, BatchSupercap
from ..storage.kernels import max0
from .buffers import HybridBuffers
from .engine import Simulation, _CALENDAR_LIFE_YEARS, _EPSILON
from .metrics import MetricsAccumulator, finalize_metrics
from .results import RunResult, SlotRecord

#: Charge orders the merged three-call schedule can interleave without
#: per-group calls: every shipped policy emits one of these.  Any other
#: order (from a custom policy) falls back to the generic group loop.
_MERGEABLE_ORDERS = frozenset({
    (), ("sc",), ("battery",), ("sc", "battery"), ("battery", "sc")})

#: Ticks of demand copied out of the lanes' traces at a time.
_DEMAND_CHUNK_TICKS = 64

#: Lanes per ``analyze_slots`` call at a slot close; bounds its
#: (lanes, slot ticks) temporaries.
_SLOT_ANALYSIS_LANES = 8


class BatchBuffers:
    """Lane-parallel :class:`~repro.sim.buffers.HybridBuffers`.

    Wraps one :class:`BatchBattery`, one :class:`BatchSupercap` (with
    absent lanes parked), and one :class:`BatchLifetime`, enforcing the
    scalar tick protocol: touched-pool tracking per tick, battery
    discharges feeding the lifetime model with the *post-step* SoC,
    battery charges and rests extending its observation window.
    """

    def __init__(self, buffers: Sequence[HybridBuffers], dt: float) -> None:
        n = len(buffers)
        self.n = n
        self.scalars = list(buffers)
        self.battery = BatchBattery([b.battery for b in buffers], dt)
        self.sc = BatchSupercap([b.sc for b in buffers])
        self.lifetime = BatchLifetime([b.lifetime for b in buffers])
        self.has_sc = self.sc.present
        self._battery_touched = np.zeros(n, dtype=bool)
        self._battery_discharged = np.zeros(n, dtype=bool)
        self._sc_touched = np.zeros(n, dtype=bool)

    # -- state views ---------------------------------------------------

    def sc_usable_j(self) -> np.ndarray:
        return np.where(self.has_sc, self.sc.usable_j(), 0.0)

    def battery_usable_j(self) -> np.ndarray:
        return self.battery.usable_j()

    def sc_nominal_j(self) -> np.ndarray:
        return np.where(self.has_sc, self.sc.nominal_j, 0.0)

    def battery_nominal_j(self) -> np.ndarray:
        return self.battery.nominal_j

    # -- tick protocol -------------------------------------------------

    def begin_tick(self) -> None:
        self._battery_touched[:] = False
        self._battery_discharged[:] = False
        self._sc_touched[:] = False

    def discharge_battery(self, mask: np.ndarray, power_w: np.ndarray,
                          dt: float) -> np.ndarray:
        self._battery_touched |= mask
        self._battery_discharged |= mask
        achieved, current = self.battery.discharge(mask, power_w, dt)
        # observe_flow reads the battery's SoC *after* the step.
        self.lifetime.observe_discharge(mask, current, dt,
                                        self.battery.soc())
        return achieved

    def discharge_sc(self, mask: np.ndarray, power_w: np.ndarray,
                     dt: float) -> np.ndarray:
        self._sc_touched |= mask
        return self.sc.discharge(mask, power_w, dt)

    def charge_battery(self, mask: np.ndarray, power_w: np.ndarray,
                       dt: float, defer: bool = False) -> np.ndarray:
        """Charge the battery pool; the lifetime model's idle
        observation and (optionally) the KiBaM step are folded into
        :meth:`settle`, which the tick protocol guarantees runs before
        any battery state is read again."""
        self._battery_touched |= mask
        return self.battery.charge(mask, power_w, dt, defer_step=defer)

    def charge_sc(self, mask: np.ndarray, power_w: np.ndarray,
                  dt: float) -> np.ndarray:
        self._sc_touched |= mask
        return self.sc.charge(mask, power_w, dt)

    def settle(self, dt: float) -> None:
        rest_battery = ~self._battery_touched
        any_rest = bool(np.count_nonzero(rest_battery))
        self.battery.flush_step(rest_battery, any_rest)
        if any_rest:
            self.battery.telemetry.record_rest(rest_battery, dt)
        # Idle observation covers charged *and* rested lanes — exactly
        # the complement of this tick's discharges (charge and
        # discharge lanes are disjoint within a tick), merged into one
        # add since nothing reads the model mid-tick.
        if np.count_nonzero(self._battery_discharged):
            self.lifetime.observe_idle(~self._battery_discharged, dt)
        else:
            self.lifetime.observe_idle(None, dt)
        self.sc.rest(self.has_sc & ~self._sc_touched, dt)

    def apply_steps_lane(self, lane: int, injector, events) -> None:
        """Apply persistent fault steps to one lane's devices.

        The lane is written back to its scalar devices, the injector
        runs the scalar mutators on them, and the lane is re-hoisted.
        """
        buf = self.scalars[lane]
        self.battery.write_back(lane, buf.battery)
        if buf.sc is not None:
            self.sc.write_back(lane, buf.sc)
        injector.apply_steps(events, buf)
        self.battery.rehoist_lane(lane, buf.battery)
        if buf.sc is not None:
            self.sc.rehoist_lane(lane, buf.sc)

    # -- finalization --------------------------------------------------

    def write_back(self) -> None:
        """Install final device state into every lane's scalar buffers."""
        for lane, buf in enumerate(self.scalars):
            self.battery.write_back(lane, buf.battery)
            if buf.sc is not None:
                self.sc.write_back(lane, buf.sc)
            self.lifetime.write_back(lane, buf.lifetime)


class BatchFaults:
    """The lanes' fault injectors, consulted on their change ticks.

    Every faulted lane keeps the
    :class:`~repro.faults.FaultInjector` its scalar simulation was built
    with.  A lane's fault state can only change on the ticks its
    injector's ``change_ticks`` names, so :meth:`advance` moves a lane's
    injector on those ticks alone and mirrors its snapshot into (lanes,)
    columns the tick loop reads in between.  Lanes without an injector
    keep the neutral state: full budget, both pools reachable.
    """

    def __init__(self, sims: Sequence[Simulation], dt: float,
                 num_ticks: int) -> None:
        n = len(sims)
        self.injectors = [sim.injector for sim in sims]
        self.faulted = np.array(
            [injector is not None for injector in self.injectors],
            dtype=bool)
        self.any = bool(np.count_nonzero(self.faulted))
        self._lanes_at: Dict[int, List[int]] = {}
        for lane, injector in enumerate(self.injectors):
            if injector is not None:
                for tick in injector.change_ticks(dt, num_ticks):
                    self._lanes_at.setdefault(tick, []).append(lane)
        self.budget_fraction = np.ones(n)
        self.sc_ok = np.ones(n, dtype=bool)
        self.battery_ok = np.ones(n, dtype=bool)
        self.leakage_w = np.zeros(n)
        #: Lanes whose budget sags, or None when none does.
        self.sag: Optional[np.ndarray] = None
        #: Lanes whose SC pool leaks, or None when none does.
        self.leak: Optional[np.ndarray] = None
        # Downtime totals already attributed (the scalar's running
        # ``last_downtime_s``).
        self._attributed_s = np.zeros(n)

    def advance(self, tick: int, now_s: float,
                buffers: BatchBuffers) -> bool:
        """The scalar tick prologue for the lanes due at ``tick``.

        Advances their injectors, applies due persistent steps, and
        refreshes the snapshot columns.  Returns False when no lane's
        state could change at ``tick``.
        """
        lanes = self._lanes_at.get(tick)
        if lanes is None:
            return False
        for lane in lanes:
            injector = self.injectors[lane]
            due = injector.advance(now_s)
            if due:
                buffers.apply_steps_lane(lane, injector, due)
        injectors = self.injectors
        self.budget_fraction = np.array(
            [1.0 if injector is None else injector.state.budget_fraction
             for injector in injectors])
        self.sc_ok = np.array(
            [injector is None or injector.sc_available
             for injector in injectors], dtype=bool)
        self.battery_ok = np.array(
            [injector is None or injector.battery_available
             for injector in injectors], dtype=bool)
        self.leakage_w = np.array(
            [0.0 if injector is None else injector.state.leakage_w
             for injector in injectors])
        sag = self.budget_fraction < 1.0
        self.sag = sag if np.count_nonzero(sag) else None
        leak = (self.leakage_w > 0.0) & buffers.has_sc
        self.leak = leak if np.count_nonzero(leak) else None
        return True

    def transform_budget(self, budget_w: np.ndarray) -> np.ndarray:
        """Lane-parallel ``FaultInjector.transform_budget``."""
        if self.sag is None:
            return budget_w
        return np.where(self.sag, budget_w * self.budget_fraction, budget_w)

    def observe(self, lane: int,
                observation: SlotObservation) -> SlotObservation:
        """The lane's injector view of a slot observation."""
        injector = self.injectors[lane]
        if injector is None:
            return observation
        return injector.observe(observation)

    def attribute_downtime(self, downtime_s: np.ndarray) -> None:
        """Charge each faulted lane's new downtime to its fault classes."""
        delta = downtime_s - self._attributed_s
        self._attributed_s = downtime_s
        for lane in np.flatnonzero(self.faulted & (delta > 0.0)).tolist():
            self.injectors[lane].attribute_downtime(float(delta[lane]))

    def downtime_by_class(self, lane: int) -> Optional[Dict[str, float]]:
        """The lane's ``RunMetrics.fault_downtime_s``."""
        injector = self.injectors[lane]
        if injector is None:
            return None
        # Empty buckets collapse to None, as in the scalar engine.
        return injector.downtime_by_class() or None


def _demand_chunks(sims: Sequence[Simulation], num_ticks: int,
                   fixed_budget: np.ndarray,
                   ) -> Iterator[Tuple[int, np.ndarray, np.ndarray,
                                       Optional[np.ndarray]]]:
    """Consecutive chunks of the lanes' per-tick inputs.

    Yields ``(first tick, demand, totals, supply)``: the (ticks, lanes,
    servers) demand, its per-tick totals accumulated server by server
    in index order (the scalar engine's ``np.add.reduce(values,
    axis=-2)`` is sequential over the outer server axis, and a
    contiguous inner-axis reduce would switch to numpy's unrolled
    pairwise path at exactly 8 servers), and the (ticks, lanes)
    supply-trace budgets with the fixed budget on utility-fed lanes —
    ``None`` when no lane has a supply trace.
    """
    n = len(sims)
    num_servers = sims[0].cluster_config.num_servers
    supplied = [lane for lane, sim in enumerate(sims)
                if sim.supply is not None]
    for start in range(0, num_ticks, _DEMAND_CHUNK_TICKS):
        stop = min(num_ticks, start + _DEMAND_CHUNK_TICKS)
        demand = np.empty((stop - start, n, num_servers))
        for lane, sim in enumerate(sims):
            demand[:, lane, :] = sim.trace.values_w[:, start:stop].T
        totals = np.zeros((stop - start, n))
        for sid in range(num_servers):
            totals = totals + demand[:, :, sid]
        supply = None
        if supplied:
            supply = np.empty((stop - start, n))
            supply[:] = fixed_budget
            for lane in supplied:
                supply[:, lane] = sims[lane].supply.values_w[start:stop]
        yield start, demand, totals, supply


def _nonempty(mask: np.ndarray) -> Optional[np.ndarray]:
    """``mask``, or None when it selects no lane."""
    return mask if np.count_nonzero(mask) else None


def _check_compatible(sims: Sequence[Simulation]) -> None:
    """Raise :class:`BatchCompatibilityError` unless one tick loop fits."""
    first = sims[0]
    dt = first.sim_config.tick_seconds
    num_ticks = first.trace.num_samples
    slot_ticks = max(1, int(round(first.controller_config.slot_seconds / dt)))
    num_servers = first.cluster_config.num_servers
    server_config = first.cluster_config.server
    for index, sim in enumerate(sims):
        if sim.profiler is not None:
            raise BatchCompatibilityError(
                f"scenario {index}: tick profiling requires the scalar path")
        if abs(sim.sim_config.tick_seconds - dt) > 1e-12:
            raise BatchCompatibilityError(
                f"scenario {index}: tick length differs")
        if sim.trace.num_samples != num_ticks:
            raise BatchCompatibilityError(
                f"scenario {index}: trace length differs")
        sim_slot_ticks = max(1, int(round(
            sim.controller_config.slot_seconds / sim.sim_config.tick_seconds)))
        if sim_slot_ticks != slot_ticks:
            raise BatchCompatibilityError(
                f"scenario {index}: slot grid differs")
        if sim.cluster_config.num_servers != num_servers:
            raise BatchCompatibilityError(
                f"scenario {index}: cluster size differs")
        if sim.cluster_config.server != server_config:
            raise BatchCompatibilityError(
                f"scenario {index}: server configuration differs")


class BatchSimulation:
    """N scenario runs advanced by one vectorized tick loop.

    Args:
        sims: Freshly constructed scalar simulations, one per scenario.
            Their constructors have already validated trace/supply/config
            consistency; this class only adds cross-scenario checks.
            The scalar objects are *consumed*: their device state is
            advanced by the batch run exactly as their own ``run()``
            would have advanced it.
    """

    def __init__(self, sims: Sequence[Simulation]) -> None:
        self.sims = list(sims)
        if self.sims:
            _check_compatible(self.sims)

    # ------------------------------------------------------------------

    def run_all(self) -> List[RunResult]:
        """Execute every scenario; returns per-scenario results in order.

        Each result is exactly equal to what the corresponding scalar
        ``Simulation.run()`` would have returned.
        """
        sims = self.sims
        if not sims:
            return []
        n = len(sims)
        first = sims[0]
        dt = first.sim_config.tick_seconds
        num_ticks = first.trace.num_samples
        slot_ticks = max(1, int(round(
            first.controller_config.slot_seconds / dt)))
        s = first.cluster_config.num_servers

        cluster = BatchCluster(n, s, first.cluster_config.server)
        scheduler = BatchScheduler(n, s)
        fabric = BatchFabric(n, s)
        ipdu = BatchIPDU(n, s)
        buffers = BatchBuffers([sim.buffers for sim in sims], dt)
        faults = BatchFaults(sims, dt, num_ticks)
        has_sc = buffers.has_sc

        eff = np.array([sim.cluster_config.converter_efficiency
                        for sim in sims])
        one_m_eff = 1.0 - eff
        renewable = [sim.renewable for sim in sims]
        fixed_budget = np.array([sim.cluster_config.utility_budget_w
                                 for sim in sims])
        supplied = np.array([sim.supply is not None for sim in sims],
                            dtype=bool)

        # Per-lane running sums of the scalar MetricsAccumulator, added
        # in its tick order; a tick that adds an exact 0.0 is skipped.
        served_energy = np.zeros(n)
        unserved_energy = np.zeros(n)
        utility_energy = np.zeros(n)
        charge_energy = np.zeros(n)
        generation_energy = np.zeros(n)
        conversion_loss = np.zeros(n)
        deficit_ticks = np.zeros(n, dtype=np.int64)
        shed_events = np.zeros(n, dtype=np.int64)

        # Per-lane slot state.
        plans: List[Optional[SlotPlan]] = [None] * n
        observations: List[Optional[SlotObservation]] = [None] * n
        last_analysis: List[Optional[PeakAnalysis]] = [None] * n
        slot_records: List[List[SlotRecord]] = [[] for _ in range(n)]
        slot_downtime_base = np.zeros(n)
        slot_budget = fixed_budget
        slot_start = 0

        # Plan-derived lane arrays, rebuilt at each slot boundary, and
        # their reachable parts, rebuilt at each boundary or fault
        # change (the first tick is always a boundary, so these
        # placeholders are never read).
        r_lambda = np.zeros(n)
        plan_use_sc = np.zeros(n, dtype=bool)
        plan_use_battery = np.zeros(n, dtype=bool)
        plan_fallback = np.zeros(n, dtype=bool)
        plan_sc_lead = plan_battery = plan_sc_trail = plan_fallback
        plan_groups: Optional[Dict[Tuple[str, ...], np.ndarray]] = None
        use_sc = use_battery = no_pools = plan_fallback
        fallback_battery = fallback_sc = plan_fallback
        any_no_pools = False
        sc_reachable = has_sc
        battery_reachable = faults.battery_ok
        charge_sc_lead: Optional[np.ndarray] = None
        charge_bat: Optional[np.ndarray] = None
        charge_sc_trail: Optional[np.ndarray] = None

        for sim in sims:
            sim.policy.reset()

        def close_slot(stop_tick: int, downtime: np.ndarray,
                       sc_usable: np.ndarray,
                       battery_usable: np.ndarray) -> None:
            """Close every lane's slot, which ends before ``stop_tick``.

            The slot's per-tick demand totals are re-read from each
            lane's trace with the scalar engine's own expression, a few
            lanes at a time, instead of being kept tick by tick.
            """
            for start in range(0, n, _SLOT_ANALYSIS_LANES):
                stop = min(n, start + _SLOT_ANALYSIS_LANES)
                block = np.empty((stop - start, stop_tick - slot_start))
                for row, sim in enumerate(sims[start:stop]):
                    block[row] = np.add.reduce(
                        sim.trace.values_w[:, slot_start:stop_tick],
                        axis=-2)
                analyses = analyze_slots(block, slot_budget[start:stop], dt)
                for lane, analysis in zip(range(start, stop), analyses):
                    close_slot_lane(lane, analysis, downtime, sc_usable,
                                    battery_usable)

        def close_slot_lane(lane: int, analysis: PeakAnalysis,
                            downtime: np.ndarray, sc_usable: np.ndarray,
                            battery_usable: np.ndarray) -> None:
            observation = observations[lane]
            plan = plans[lane]
            assert observation is not None and plan is not None
            downtime_s = float(downtime[lane] - slot_downtime_base[lane])
            peak_duration_s = expected_peak_duration_s(analysis)
            sc_usable_end = float(sc_usable[lane])
            battery_usable_end = float(battery_usable[lane])
            sims[lane].policy.end_slot(SlotResult(
                observation=observation,
                plan=plan,
                sc_usable_end_j=sc_usable_end,
                battery_usable_end_j=battery_usable_end,
                actual_peak_w=analysis.peak_w,
                actual_valley_w=analysis.valley_w,
                actual_peak_duration_s=peak_duration_s,
                downtime_s=downtime_s,
            ))
            slot_records[lane].append(SlotRecord(
                index=observation.index,
                note=plan.note,
                r_lambda=plan.r_lambda,
                peak_w=analysis.peak_w,
                valley_w=analysis.valley_w,
                peak_duration_s=peak_duration_s,
                sc_usable_end_j=sc_usable_end,
                battery_usable_end_j=battery_usable_end,
                downtime_in_slot_s=downtime_s,
            ))
            last_analysis[lane] = analysis

        chunks = _demand_chunks(sims, num_ticks, fixed_budget)
        chunk_start = chunk_stop = 0
        demand = totals = supply = None
        with np.errstate(all="ignore"):
            for tick in range(num_ticks):
                now = tick * dt
                if tick == chunk_stop:
                    chunk_start, demand, totals, supply = next(chunks)
                    chunk_stop = chunk_start + len(totals)
                row = tick - chunk_start
                raw = demand[row]
                total = totals[row]
                budget = fixed_budget if supply is None else supply[row]

                # --- fault prologue -----------------------------------
                faults_changed = faults.advance(tick, now, buffers)
                if faults.leak is not None:
                    buffers.sc.apply_leakage(faults.leak, faults.leakage_w,
                                             dt)
                budget = faults.transform_budget(budget)

                # --- slot boundary ------------------------------------
                boundary = tick % slot_ticks == 0
                if boundary:
                    sc_usable = buffers.sc_usable_j()
                    battery_usable = buffers.battery_usable_j()
                    sc_nominal = buffers.sc_nominal_j()
                    battery_nominal = buffers.battery_nominal_j()
                    downtime = cluster.total_downtime_lanes()
                    if plans[0] is not None:
                        # Every lane's plan is set at the same boundary.
                        close_slot(tick, downtime, sc_usable,
                                   battery_usable)
                    slot_downtime_base = downtime
                    for lane in range(n):
                        analysis = last_analysis[lane]
                        if analysis is None:
                            last_peak = last_valley = last_duration = 0.0
                        else:
                            last_peak = analysis.peak_w
                            last_valley = analysis.valley_w
                            last_duration = expected_peak_duration_s(analysis)
                        observation = faults.observe(lane, SlotObservation(
                            index=tick // slot_ticks,
                            start_s=now,
                            budget_w=float(budget[lane]),
                            sc_usable_j=float(sc_usable[lane]),
                            battery_usable_j=float(battery_usable[lane]),
                            sc_nominal_j=float(sc_nominal[lane]),
                            battery_nominal_j=float(battery_nominal[lane]),
                            last_peak_w=last_peak,
                            last_valley_w=last_valley,
                            last_peak_duration_s=last_duration,
                            num_servers=s,
                        ))
                        observations[lane] = observation
                        plans[lane] = sims[lane].policy.begin_slot(
                            observation)
                    slot_start = tick
                    slot_budget = budget
                    r_lambda = np.array(
                        [p.r_lambda for p in plans], dtype=float)
                    # clamp(r_lambda, 0, 1) with the scalar's NaN -> 1.0
                    # quirk, hoisted out of the tick loop (plans are
                    # constant within a slot).
                    r_lambda = np.where(
                        ~(r_lambda < 1.0), 1.0,
                        np.where(r_lambda < 0.0, 0.0, r_lambda))
                    plan_use_sc = np.array(
                        [p.use_sc for p in plans], dtype=bool)
                    plan_use_battery = np.array(
                        [p.use_battery for p in plans], dtype=bool)
                    plan_fallback = np.array(
                        [p.fallback for p in plans], dtype=bool)
                    orders = [p.charge_order for p in plans]
                    if all(o in _MERGEABLE_ORDERS for o in orders):
                        # Merged schedule: one SC call for sc-leading
                        # lanes, one battery call, one SC call for
                        # ("battery", "sc") lanes.
                        plan_groups = None
                        plan_sc_lead = np.array(
                            [o[:1] == ("sc",) for o in orders], dtype=bool)
                        plan_battery = np.array(
                            ["battery" in o for o in orders], dtype=bool)
                        plan_sc_trail = np.array(
                            [o == ("battery", "sc") for o in orders],
                            dtype=bool)
                    else:
                        plan_groups = {}
                        for order in dict.fromkeys(orders):
                            plan_groups[order] = np.array(
                                [o == order for o in orders], dtype=bool)

                if boundary or faults_changed:
                    # What the plans may use of the pools that are
                    # reachable this tick.
                    sc_reachable = has_sc & faults.sc_ok
                    battery_reachable = faults.battery_ok
                    use_sc = plan_use_sc & sc_reachable
                    use_battery = plan_use_battery & battery_reachable
                    no_pools = ~use_sc & ~use_battery
                    any_no_pools = bool(np.count_nonzero(no_pools))
                    fallback_battery = plan_fallback & battery_reachable
                    fallback_sc = plan_fallback & sc_reachable
                    if plan_groups is None:
                        # Empty masks drop their call entirely.
                        charge_sc_lead = _nonempty(
                            plan_sc_lead & sc_reachable)
                        charge_bat = _nonempty(
                            plan_battery & battery_reachable)
                        charge_sc_trail = _nonempty(
                            plan_sc_trail & sc_reachable)

                # --- demand & assignment ------------------------------
                all_on = cluster.all_on
                draws = cluster.draw_array(raw)
                assignment = scheduler.assign(
                    draws, None if all_on else cluster.powered_mask(),
                    budget, r_lambda, use_sc=use_sc,
                    use_battery=use_battery, no_pools=no_pools,
                    total=total if all_on else None)

                # The scalar engine skips relay applies only on ticks
                # where an apply would move zero relays, so per-tick
                # diff counting is switch-count identical.
                cluster.assign_sources(assignment.sources)
                fabric.apply_sources(assignment.sources)

                utility_draw = assignment.utility_draw_w
                unserved = None
                if not all_on:
                    off = cluster.off_mask()
                    unserved = np.zeros(n)
                    for j in range(s):
                        unserved = unserved + np.where(
                            off[:, j], raw[:, j], 0.0)

                # Forced capping: no pool could absorb the excess.
                # Skippable when every lane stayed within budget with
                # pools enabled (the within check already proved
                # ``total <= budget`` for every no-pools lane).
                if any_no_pools or not assignment.all_utility:
                    over = utility_draw - budget
                    over_mask = over > _EPSILON
                    if np.count_nonzero(over_mask):
                        if unserved is None:
                            unserved = np.zeros(n)
                        # utility_draw may alias the chunk's totals row;
                        # never mutate through it.
                        if (utility_draw.base is not None
                                or not utility_draw.flags.writeable):
                            utility_draw = utility_draw.copy()
                        for lane in np.flatnonzero(over_mask).tolist():
                            shed_ids = cluster.shed_lru_lane(
                                lane, float(over[lane]), draws,
                                (SOURCE_UTILITY,))
                            freed = 0.0
                            # Shed-order re-sum matches the scalar engine.
                            for sid in shed_ids:
                                freed += float(draws[lane, sid])
                            utility_draw[lane] -= freed
                            unserved[lane] += freed
                            shed_events[lane] += len(shed_ids)

                # --- buffer service -----------------------------------
                buffers.begin_tick()
                served = loss = None
                if not assignment.all_utility:
                    served, shortfall_unserved, loss = self._serve_buffers(
                        buffers, cluster, assignment, fallback_battery,
                        fallback_sc, draws, eff, one_m_eff, shed_events,
                        dt)
                    if shortfall_unserved is not None:
                        unserved = (shortfall_unserved if unserved is None
                                    else unserved + shortfall_unserved)

                # --- charging / restarts ------------------------------
                charge_w = None
                headroom = budget - utility_draw
                if assignment.all_utility:
                    deficit = None
                    can_charge = headroom > _EPSILON
                else:
                    deficit = assignment.n_buffered > 0
                    can_charge = ~deficit & (headroom > _EPSILON)
                if np.count_nonzero(can_charge):
                    if not cluster.all_on:
                        restart_lanes = can_charge & (cluster.num_off() > 0)
                        if np.count_nonzero(restart_lanes):
                            headroom = headroom.copy()
                            for lane in np.flatnonzero(
                                    restart_lanes).tolist():
                                needed = cluster.restart_offline_lane(
                                    lane, float(headroom[lane]))
                                # Restart-order deduction matches the
                                # scalar engine.
                                for needed_w in needed:
                                    headroom[lane] -= needed_w
                            # The scalar offers max(0, headroom) and
                            # charges nothing once it is <= eps.
                            can_charge = can_charge & (headroom > _EPSILON)
                    if plan_groups is None:
                        charge_w = self._charge_pools_merged(
                            buffers, charge_sc_lead, charge_bat,
                            charge_sc_trail, can_charge, headroom, dt)
                    else:
                        charge_w = self._charge_pools(
                            buffers, plan_groups, can_charge, sc_reachable,
                            battery_reachable, headroom, dt)
                buffers.settle(dt)

                # --- bookkeeping --------------------------------------
                # Downtime accrues only while some server is down,
                # counting servers shed this tick.
                accrues = faults.any and not cluster.all_on
                cluster.tick(dt, now, raw)
                if accrues:
                    faults.attribute_downtime(
                        cluster.total_downtime_lanes())
                ipdu.record_array(now, draws, dt, total if all_on else None)
                utility_j = utility_draw * dt
                utility_energy = utility_energy + utility_j
                if served is None:
                    served_energy = served_energy + utility_j
                else:
                    served_energy = (served_energy
                                     + (utility_draw + served) * dt)
                if unserved is not None:
                    unserved_energy = unserved_energy + unserved * dt
                if charge_w is not None:
                    charge_energy = charge_energy + charge_w * dt
                if supply is not None:
                    generation_energy = (generation_energy
                                         + np.where(supplied, supply[row],
                                                    0.0) * dt)
                if loss is not None:
                    conversion_loss = conversion_loss + loss * dt
                if deficit is not None:
                    deficit_ticks = deficit_ticks + deficit

        if plans[0] is not None:
            close_slot(num_ticks, cluster.total_downtime_lanes(),
                       buffers.sc_usable_j(), buffers.battery_usable_j())

        # --- finalization --------------------------------------------
        buffers.write_back()
        downtime = cluster.total_downtime_lanes()
        duration_s = num_ticks * dt
        results: List[RunResult] = []
        for lane, sim in enumerate(sims):
            buf = sim.buffers
            report = buf.lifetime_report()
            lifetime_years = min(report.estimated_lifetime_years,
                                 _CALENDAR_LIFE_YEARS)
            accumulator = MetricsAccumulator(
                served_energy_j=float(served_energy[lane]),
                unserved_energy_j=float(unserved_energy[lane]),
                utility_energy_j=float(utility_energy[lane]),
                charge_energy_j=float(charge_energy[lane]),
                generation_energy_j=float(generation_energy[lane]),
                conversion_loss_j=float(conversion_loss[lane]),
                deficit_ticks=int(deficit_ticks[lane]),
                total_ticks=num_ticks,
                shed_events=int(shed_events[lane]),
            )
            metrics = finalize_metrics(
                accumulator,
                buffer_in_j=buf.energy_in_j(),
                buffer_out_j=buf.energy_out_j(),
                initial_stored_j=buf.initial_stored_j,
                final_stored_j=buf.total_stored_j,
                downtime_s=float(downtime[lane]),
                num_servers=s,
                duration_s=duration_s,
                lifetime_years=lifetime_years,
                equivalent_cycles=report.equivalent_full_cycles,
                total_restarts=cluster.total_restarts_lane(lane),
                restart_energy_j=cluster.total_restart_energy_lane(lane),
                relay_switches=fabric.total_switches_lane(lane),
                renewable=renewable[lane],
                fault_downtime_s=faults.downtime_by_class(lane),
            )
            results.append(RunResult(
                scheme=sim.policy.name,
                workload=sim.trace.name,
                metrics=metrics,
                lifetime=report,
                slots=tuple(slot_records[lane]),
                perf=None,
            ))
        return results

    # ------------------------------------------------------------------

    @staticmethod
    def _serve_buffers(buffers: BatchBuffers, cluster: BatchCluster,
                       assignment, fallback_battery: np.ndarray,
                       fallback_sc: np.ndarray, draws: np.ndarray,
                       eff: np.ndarray, one_m_eff: np.ndarray,
                       shed_events: np.ndarray, dt: float):
        """Lane-parallel ``Simulation._serve_buffers``.

        ``fallback_battery`` / ``fallback_sc`` are the lanes whose plan
        allows fallback onto a pool that exists and is reachable.
        ``served``/``loss``/``unserved`` stay ``None`` until a pool
        actually contributes; the pool ``achieved`` arrays are exact
        zeros off-mask, so the unmasked adds reproduce the scalar
        running sums bit-for-bit (``0.0 + x == x`` and ``x + 0.0 == x``
        for the non-negative quantities involved).
        """
        n = buffers.n
        served = loss = sc_short = ba_short = None

        draw = assignment.sc_draw_w
        mask = draw > _EPSILON
        if np.count_nonzero(mask):
            achieved = buffers.discharge_sc(mask, draw / eff, dt)
            delivered = achieved * eff
            loss = achieved * one_m_eff
            served = delivered
            # Off-mask lanes read their (<= eps) raw draw here; every
            # consumer gates on ``short > _EPSILON``, so no zeroing.
            sc_short = max0(draw - delivered)
        draw = assignment.battery_draw_w
        mask = draw > _EPSILON
        if np.count_nonzero(mask):
            achieved = buffers.discharge_battery(mask, draw / eff, dt)
            delivered = achieved * eff
            term = achieved * one_m_eff
            loss = term if loss is None else loss + term
            served = delivered if served is None else served + delivered
            ba_short = max0(draw - delivered)

        if sc_short is not None:
            mask = fallback_battery & (sc_short > _EPSILON)
            if np.count_nonzero(mask):
                achieved = buffers.discharge_battery(
                    mask, sc_short / eff, dt)
                delivered = achieved * eff
                loss = loss + achieved * one_m_eff
                served = served + delivered
                sc_short = max0(sc_short - delivered)
        if ba_short is not None:
            mask = fallback_sc & (ba_short > _EPSILON)
            if np.count_nonzero(mask):
                achieved = buffers.discharge_sc(mask, ba_short / eff, dt)
                delivered = achieved * eff
                loss = loss + achieved * one_m_eff
                served = served + delivered
                ba_short = max0(ba_short - delivered)

        unserved = None
        for short, source in ((sc_short, SOURCE_SUPERCAP),
                              (ba_short, SOURCE_BATTERY)):
            if short is None:
                continue
            short_mask = short > _EPSILON
            if not np.count_nonzero(short_mask):
                continue
            if unserved is None:
                unserved = np.zeros(n)
            for lane in np.flatnonzero(short_mask).tolist():
                shed_ids = cluster.shed_lru_lane(
                    lane, float(short[lane]), draws, (source,))
                # Shed-order re-sum matches the scalar engine.
                for sid in shed_ids:
                    unserved[lane] += float(draws[lane, sid])
                shed_events[lane] += len(shed_ids)
        return served, unserved, loss

    @staticmethod
    def _charge_pools_merged(buffers: BatchBuffers,
                             sc_lead: Optional[np.ndarray],
                             bat: Optional[np.ndarray],
                             sc_trail: Optional[np.ndarray],
                             eligible: np.ndarray, headroom: np.ndarray,
                             dt: float) -> Optional[np.ndarray]:
        """Interleaved charge schedule in three pool calls.

        Exact for every order in :data:`_MERGEABLE_ORDERS`: each lane
        sees its pools in its own order because sc-leading lanes get
        the first SC call, every battery-bearing lane shares one
        battery call (with the scalar's ``remaining > eps`` recheck
        when an SC call preceded it), and ("battery", "sc") lanes get
        the trailing SC call.  Eligibility already implies
        ``headroom > eps``, so the first call a lane participates in
        needs no recheck.  Returns ``None`` when no pool accepted
        anything (exact zeros otherwise off-mask).
        """
        remaining = headroom
        accepted = None
        if sc_lead is not None:
            active = sc_lead & eligible
            if np.count_nonzero(active):
                achieved = buffers.charge_sc(active, remaining, dt)
                accepted = achieved
                remaining = np.where(active, remaining - achieved,
                                     remaining)
        if bat is not None:
            active = bat & eligible
            if accepted is not None:
                active = active & (remaining > _EPSILON)
            if np.count_nonzero(active):
                achieved = buffers.charge_battery(active, remaining, dt,
                                                  defer=True)
                accepted = (achieved if accepted is None
                            else accepted + achieved)
                if sc_trail is not None:
                    remaining = np.where(active, remaining - achieved,
                                         remaining)
        if sc_trail is not None:
            active = sc_trail & eligible & (remaining > _EPSILON)
            if np.count_nonzero(active):
                achieved = buffers.charge_sc(active, remaining, dt)
                accepted = (achieved if accepted is None
                            else accepted + achieved)
        return accepted

    @staticmethod
    def _charge_pools(buffers: BatchBuffers,
                      charge_groups: Dict[Tuple[str, ...], np.ndarray],
                      eligible: np.ndarray, sc_reachable: np.ndarray,
                      battery_reachable: np.ndarray,
                      headroom: np.ndarray, dt: float) -> np.ndarray:
        """Lane-parallel ``Simulation._charge_pools``.

        Generic per-group fallback for charge orders outside
        :data:`_MERGEABLE_ORDERS`; battery steps are not deferred here
        because an exotic order could revisit the battery.  Pools
        outside ``sc_reachable`` / ``battery_reachable`` are skipped.
        """
        accepted = np.zeros(buffers.n)
        remaining = headroom
        battery_charged = np.zeros(buffers.n, dtype=bool)
        for order, group in charge_groups.items():
            lanes = group & eligible
            if not np.count_nonzero(lanes):
                continue
            for name in order:
                active = lanes & (remaining > _EPSILON)
                if name == "sc":
                    active = active & sc_reachable
                elif name == "battery":
                    active = active & battery_reachable
                if not np.count_nonzero(active):
                    continue
                if name == "sc":
                    achieved = buffers.charge_sc(active, remaining, dt)
                else:
                    # The scalar observes an idle lifetime step per
                    # battery charge, settle() one per tick: a repeat
                    # charge observes its extra step here.
                    repeat = active & battery_charged
                    if np.count_nonzero(repeat):
                        buffers.lifetime.observe_idle(repeat, dt)
                    battery_charged = battery_charged | active
                    achieved = buffers.charge_battery(active, remaining, dt)
                accepted = accepted + np.where(active, achieved, 0.0)
                remaining = np.where(active, remaining - achieved,
                                     remaining)
        return accepted


__all__ = ["BatchBuffers", "BatchSimulation"]
