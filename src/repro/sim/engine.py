"""The discrete-time simulation engine.

One :class:`Simulation` reproduces what the prototype does in hardware
(Section 6): every second the IPDU meters per-server demand; the hControl
plan in force routes servers between utility/solar, the SC pool and the
battery pool; surpluses charge the buffers; shortfalls shed
least-recently-used servers.  Every ``slot_seconds`` the policy is asked
for a fresh :class:`SlotPlan` and told how the last slot went.

Power-flow rules per tick (all at the server side of the converter):

1. The scheduler moves the hungriest servers off the source feed until the
   source draw fits the budget; buffered servers split SC/battery by the
   plan's R_lambda.
2. Pools discharge their assigned draw (divided by the converter
   efficiency).  If a pool cannot keep up and the plan allows fallback,
   the other pool covers the shortfall — the paper's "the other will take
   over the entire load immediately via power switches".
3. Any remaining shortfall sheds LRU servers from the failing pool's
   cohort (Section 7.2).
4. With no deficit, headroom restarts offline servers first, then charges
   the pools in the plan's ``charge_order``.

Fault injection: an optional :class:`~repro.faults.FaultInjector` hooks
the loop at four points — the tick prologue (degradation steps, SC
leakage, budget sag, pool availability), :meth:`Simulation._observe`
(sensor corruption and availability flags on the slot observation),
:meth:`Simulation._serve_buffers` / :meth:`Simulation._charge_pools`
(unreachable pools neither serve, back up, nor charge), and the tick
epilogue (downtime attribution per fault class).  Every hook is gated
on ``injector is not None``, so a run without an injector is
bit-identical to one from before the subsystem existed.  The batched
engine (:mod:`repro.sim.batch`) consults the same injector at the same
four points, one lane at a time on the ticks where its fault state
changes.

The cluster, scheduler, relay fabric and IPDU are built by :meth:`run`,
not by the constructor: the batched engine consumes constructed
simulations for their trace, policy, buffers and configs only.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..config import ClusterConfig, ControllerConfig, SimulationConfig
from ..core.peaks import analyze_slot, expected_peak_duration_s
from ..core.policies.base import Policy, SlotObservation, SlotPlan, SlotResult
from ..core.scheduler import LoadScheduler
from ..errors import SimulationError
from ..power.components import IPDU, RelayPosition, SwitchFabric
from ..server.cluster import ServerCluster
from ..server.server import PowerSource
from ..workloads.base import ClusterTrace, PowerTrace
from .buffers import HybridBuffers
from .metrics import MetricsAccumulator, finalize_metrics
from .results import PerfReport, RunResult, SlotRecord

_EPSILON = 1e-9

# Lead-acid calendar life bounds the throughput estimate (shelf aging
# dominates once cycling wear is light).
_CALENDAR_LIFE_YEARS = 15.0


class Simulation:
    """One (workload, scheme, buffer sizing) simulation run."""

    def __init__(self,
                 trace: ClusterTrace,
                 policy: Policy,
                 buffers: HybridBuffers,
                 cluster_config: Optional[ClusterConfig] = None,
                 controller_config: Optional[ControllerConfig] = None,
                 sim_config: Optional[SimulationConfig] = None,
                 supply: Optional[PowerTrace] = None,
                 renewable: bool = False,
                 profiler=None,
                 injector=None) -> None:
        self.trace = trace
        self.policy = policy
        self.buffers = buffers
        #: Optional tick profiler (``repro.perf.TickProfiler``); injected
        #: rather than imported so the deterministic sim package never
        #: touches wall clocks itself.
        self.profiler = profiler
        #: Optional fault injector (``repro.faults.FaultInjector``); also
        #: injected rather than imported — the engine only consults its
        #: hook protocol, keeping ``sim`` free of a ``faults`` dependency.
        self.injector = injector
        self.cluster_config = cluster_config or ClusterConfig()
        self.controller_config = controller_config or ControllerConfig()
        self.sim_config = sim_config or SimulationConfig()
        self.supply = supply
        self.renewable = renewable

        if trace.num_servers != self.cluster_config.num_servers:
            raise SimulationError(
                f"trace has {trace.num_servers} servers but the cluster "
                f"has {self.cluster_config.num_servers}")
        if supply is not None:
            if abs(supply.dt_s - trace.dt_s) > 1e-9:
                raise SimulationError("supply and demand dt must match")
            if len(supply) < trace.num_samples:
                raise SimulationError("supply trace shorter than demand")
        if abs(self.sim_config.tick_seconds - trace.dt_s) > 1e-9:
            raise SimulationError(
                "trace dt must equal the engine tick length")

    # ------------------------------------------------------------------

    def run(self) -> RunResult:
        """Execute the whole trace and return the result."""
        dt = self.sim_config.tick_seconds
        controller = self.controller_config
        slot_ticks = max(1, int(round(controller.slot_seconds / dt)))
        num_ticks = self.trace.num_samples

        num_servers = self.cluster_config.num_servers
        self.cluster = ServerCluster(self.cluster_config)
        self.scheduler = LoadScheduler()
        self.fabric = SwitchFabric(num_servers)
        # The IPDU meters per-server draw every tick, exactly as the
        # prototype's unit reports over SNMP (Section 6); the history is
        # bounded to one control slot.
        self.ipdu = IPDU(num_servers, history_limit=slot_ticks)

        accumulator = MetricsAccumulator()
        slot_records: List[SlotRecord] = []
        slot_demand: List[float] = []
        slot_downtime_base = 0.0
        last_analysis = None
        plan: Optional[SlotPlan] = None
        observation: Optional[SlotObservation] = None

        # Loop-invariant lookups, hoisted out of the tick loop.
        cluster = self.cluster
        buffers = self.buffers
        scheduler = self.scheduler
        ipdu = self.ipdu
        values = self.trace.values_w
        supply = self.supply
        fixed_budget = self.cluster_config.utility_budget_w
        has_sc = buffers.sc is not None
        prof = self.profiler
        injector = self.injector
        # Pool reachability under injected power-path faults; stays True
        # for the whole run when no injector is present.
        sc_ok = True
        ba_ok = True
        last_downtime_s = 0.0

        # Per-tick cluster demand totals, computed in one vectorized pass.
        # A reduce over the outer server axis (axis=-2 of the (servers,
        # ticks) trace) adds the rows in server-index order at any
        # width; the batched engine sums in the same order.
        tick_totals: List[float] = np.add.reduce(values, axis=-2).tolist()

        # The relay plan is re-applied only when it (or any server state)
        # changed since the last apply; SwitchFabric counts transitions,
        # so re-applying an identical plan is pure overhead.
        last_sources: Optional[Tuple[PowerSource, ...]] = None
        last_version = -1
        relay_applies = 0
        relay_skips = 0

        self.policy.reset()

        for tick in range(num_ticks):
            now = tick * dt
            budget = supply[tick] if supply is not None else fixed_budget
            if prof is not None:
                prof.begin_tick()

            # --- fault prologue -----------------------------------------
            if injector is not None:
                injector.begin_tick(now, dt, buffers)
                budget = injector.transform_budget(budget)
                sc_ok = injector.sc_available
                ba_ok = injector.battery_available

            # --- slot boundary ------------------------------------------
            if tick % slot_ticks == 0:
                if plan is not None and observation is not None:
                    last_analysis = self._close_slot(
                        observation, plan, slot_demand, dt,
                        slot_downtime_base, slot_records)
                slot_demand = []
                slot_downtime_base = cluster.total_downtime_s()
                observation = self._observe(
                    tick // slot_ticks, now, budget, last_analysis)
                plan = self.policy.begin_slot(observation)
                if prof is not None:
                    prof.mark("slot")

            assert plan is not None  # set on the first iteration

            # --- demand & assignment --------------------------------------
            # The trace is validated at construction (non-negative, right
            # shape), so the per-tick view skips draws_w's re-validation.
            raw = values[:, tick]
            draws = cluster.draw_array(raw)
            assignment = scheduler.assign(
                draws, cluster.powered_mask(), budget, plan.r_lambda,
                use_sc=plan.use_sc and has_sc and sc_ok,
                use_battery=plan.use_battery and ba_ok)
            if prof is not None:
                prof.mark("schedule")

            sources = assignment.sources
            version = cluster.version
            if sources != last_sources or version != last_version:
                cluster.assign_sources(sources)
                self._actuate_relays(sources)
                last_sources = sources
                last_version = version
                relay_applies += 1
            else:
                relay_skips += 1

            utility_draw = assignment.utility_draw_w
            num_off = cluster.num_off
            if num_off:
                unserved_w = float(sum(raw[i] for i in cluster.off_indices()))
            else:
                unserved_w = 0.0

            # Forced capping: no pool could absorb the excess.
            over = utility_draw - budget
            if over > _EPSILON:
                shed = cluster.shed_lru(
                    over, draws, from_sources=(PowerSource.UTILITY,))
                freed = sum(float(draws[s.server_id]) for s in shed)
                utility_draw -= freed
                unserved_w += freed
                accumulator.shed_events += len(shed)
                last_version = -1
            if prof is not None:
                prof.mark("actuate")

            # --- buffer service -------------------------------------------
            buffers.begin_tick()
            served_from_buffers, shortfall_unserved, loss_w = (
                self._serve_buffers(assignment, plan, draws, dt, accumulator,
                                    sc_ok=sc_ok, ba_ok=ba_ok))
            unserved_w += shortfall_unserved
            if prof is not None:
                prof.mark("buffers")

            # --- charging / restarts --------------------------------------
            charge_w = 0.0
            deficit = assignment.n_buffered > 0
            if not deficit:
                headroom = budget - utility_draw
                if headroom > _EPSILON:
                    # Re-read: this tick's shedding may have turned
                    # servers off after the snapshot above.
                    if cluster.num_off:
                        restarted = cluster.restart_offline(headroom)
                        for server in restarted:
                            headroom -= max(
                                server.draw_w(0.0),
                                server.config.idle_power_w)
                    charge_w = self._charge_pools(
                        plan.charge_order, max(0.0, headroom), dt,
                        sc_ok=sc_ok, ba_ok=ba_ok)
            buffers.settle(dt)
            if prof is not None:
                prof.mark("charge")

            # --- bookkeeping ----------------------------------------------
            cluster.tick(dt, now, raw)
            if injector is not None:
                # Attribute newly-accrued downtime to the fault classes
                # in force this tick (cheap: only runs under injection).
                downtime_total = cluster.total_downtime_s()
                injector.attribute_downtime(downtime_total - last_downtime_s)
                last_downtime_s = downtime_total
            ipdu.record_array(now, draws, dt)
            slot_demand.append(tick_totals[tick])
            accumulator.record_tick(
                dt=dt,
                served_w=utility_draw + served_from_buffers,
                unserved_w=unserved_w,
                utility_w=utility_draw,
                charge_w=charge_w,
                generation_w=supply[tick] if supply is not None else 0.0,
                conversion_loss_w=loss_w,
                deficit=deficit,
            )
            if prof is not None:
                prof.mark("bookkeeping")

        if plan is not None and observation is not None:
            self._close_slot(observation, plan, slot_demand, dt,
                             slot_downtime_base, slot_records)

        perf: Optional[PerfReport] = None
        if prof is not None:
            prof.count("relay_applies", relay_applies)
            prof.count("relay_skips", relay_skips)
            prof.count("scheduler_calls", scheduler.calls)
            prof.count("scheduler_within_budget", scheduler.within_budget_hits)
            prof.count("scheduler_order_reuses", scheduler.order_reuses)
            perf = prof.report()

        return self._finalize(accumulator, slot_records, num_ticks * dt,
                              perf)

    # ------------------------------------------------------------------
    # Tick helpers
    # ------------------------------------------------------------------

    def _actuate_relays(self, sources: Tuple[PowerSource, ...]) -> None:
        positions = []
        for source in sources:
            if source is PowerSource.UTILITY:
                positions.append(RelayPosition.UTILITY)
            elif source in (PowerSource.SUPERCAP, PowerSource.BATTERY):
                positions.append(RelayPosition.STORAGE)
            else:
                positions.append(RelayPosition.OPEN)
        self.fabric.apply(positions)

    def _serve_buffers(self, assignment, plan: SlotPlan, draws,
                       dt: float, accumulator: MetricsAccumulator,
                       sc_ok: bool = True, ba_ok: bool = True,
                       ) -> Tuple[float, float, float]:
        """Discharge pools for the buffered servers.

        ``sc_ok`` / ``ba_ok`` carry injected power-path faults: an
        unreachable pool cannot serve its own cohort (the scheduler never
        assigns one) and — enforced here — cannot take over the other
        pool's shortfall either.

        Returns (power served to servers, power unserved after shedding,
        conversion loss).
        """
        eff = self.cluster_config.converter_efficiency
        served = 0.0
        loss = 0.0
        sc_short = 0.0
        ba_short = 0.0

        if assignment.sc_draw_w > _EPSILON:
            result = self.buffers.discharge("sc", assignment.sc_draw_w / eff,
                                            dt)
            delivered = result.achieved_w * eff
            loss += result.achieved_w * (1.0 - eff)
            served += delivered
            sc_short = max(0.0, assignment.sc_draw_w - delivered)
        if assignment.battery_draw_w > _EPSILON:
            result = self.buffers.discharge(
                "battery", assignment.battery_draw_w / eff, dt)
            delivered = result.achieved_w * eff
            loss += result.achieved_w * (1.0 - eff)
            served += delivered
            ba_short = max(0.0, assignment.battery_draw_w - delivered)

        if plan.fallback:
            if sc_short > _EPSILON and ba_ok:
                result = self.buffers.discharge("battery", sc_short / eff, dt)
                delivered = result.achieved_w * eff
                loss += result.achieved_w * (1.0 - eff)
                served += delivered
                sc_short = max(0.0, sc_short - delivered)
            if ba_short > _EPSILON and sc_ok and self.buffers.sc is not None:
                result = self.buffers.discharge("sc", ba_short / eff, dt)
                delivered = result.achieved_w * eff
                loss += result.achieved_w * (1.0 - eff)
                served += delivered
                ba_short = max(0.0, ba_short - delivered)

        # The power a pool did deliver keeps its surviving servers up;
        # only the shortfall's worth of servers browns out and is shed.
        unserved = 0.0
        if sc_short > _EPSILON:
            shed = self.cluster.shed_lru(
                sc_short, draws, from_sources=(PowerSource.SUPERCAP,))
            unserved += sum(float(draws[s.server_id]) for s in shed)
            accumulator.shed_events += len(shed)
        if ba_short > _EPSILON:
            shed = self.cluster.shed_lru(
                ba_short, draws, from_sources=(PowerSource.BATTERY,))
            unserved += sum(float(draws[s.server_id]) for s in shed)
            accumulator.shed_events += len(shed)
        return served, unserved, loss

    def _charge_pools(self, order: Tuple[str, ...], headroom_w: float,
                      dt: float, sc_ok: bool = True,
                      ba_ok: bool = True) -> float:
        """Offer valley surplus to the pools; returns power accepted.

        Pools made unreachable by injected power-path faults are skipped
        — an open-circuited bank can no more absorb surplus than serve.
        """
        accepted = 0.0
        for name in order:
            if headroom_w <= _EPSILON:
                break
            if name == "sc" and (self.buffers.sc is None or not sc_ok):
                continue
            if name == "battery" and not ba_ok:
                continue
            result = self.buffers.charge(name, headroom_w, dt)
            accepted += result.achieved_w
            headroom_w -= result.achieved_w
        return accepted

    # ------------------------------------------------------------------
    # Slot helpers
    # ------------------------------------------------------------------

    def _observe(self, index: int, now: float, budget: float,
                 last_analysis) -> SlotObservation:
        if last_analysis is None:
            last_peak = last_valley = last_duration = 0.0
        else:
            last_peak = last_analysis.peak_w
            last_valley = last_analysis.valley_w
            last_duration = expected_peak_duration_s(last_analysis)
        observation = SlotObservation(
            index=index,
            start_s=now,
            budget_w=budget,
            sc_usable_j=self.buffers.sc_usable_j,
            battery_usable_j=self.buffers.battery_usable_j,
            sc_nominal_j=self.buffers.sc_nominal_j,
            battery_nominal_j=self.buffers.battery_nominal_j,
            last_peak_w=last_peak,
            last_valley_w=last_valley,
            last_peak_duration_s=last_duration,
            num_servers=self.cluster.num_servers,
        )
        if self.injector is not None:
            # The controller sees what its sensors report: telemetry may
            # be perturbed (and flagged), pools may be marked unreachable.
            observation = self.injector.observe(observation)
        return observation

    def _close_slot(self, observation: SlotObservation, plan: SlotPlan,
                    slot_demand: List[float], dt: float,
                    downtime_base: float,
                    slot_records: List[SlotRecord]):
        demand_trace = PowerTrace(np.asarray(slot_demand), dt,
                                  name="slot-demand")
        analysis = analyze_slot(demand_trace, observation.budget_w)
        downtime = self.cluster.total_downtime_s() - downtime_base
        peak_duration_s = expected_peak_duration_s(analysis)
        result = SlotResult(
            observation=observation,
            plan=plan,
            sc_usable_end_j=self.buffers.sc_usable_j,
            battery_usable_end_j=self.buffers.battery_usable_j,
            actual_peak_w=analysis.peak_w,
            actual_valley_w=analysis.valley_w,
            actual_peak_duration_s=peak_duration_s,
            downtime_s=downtime,
        )
        self.policy.end_slot(result)
        slot_records.append(SlotRecord(
            index=observation.index,
            note=plan.note,
            r_lambda=plan.r_lambda,
            peak_w=analysis.peak_w,
            valley_w=analysis.valley_w,
            peak_duration_s=peak_duration_s,
            sc_usable_end_j=self.buffers.sc_usable_j,
            battery_usable_end_j=self.buffers.battery_usable_j,
            downtime_in_slot_s=downtime,
        ))
        return analysis

    # ------------------------------------------------------------------

    def _finalize(self, accumulator: MetricsAccumulator,
                  slot_records: List[SlotRecord],
                  duration_s: float,
                  perf: Optional[PerfReport] = None) -> RunResult:
        report = self.buffers.lifetime_report()
        lifetime_years = min(report.estimated_lifetime_years,
                             _CALENDAR_LIFE_YEARS)
        metrics = finalize_metrics(
            accumulator,
            buffer_in_j=self.buffers.energy_in_j(),
            buffer_out_j=self.buffers.energy_out_j(),
            initial_stored_j=self.buffers.initial_stored_j,
            final_stored_j=self.buffers.total_stored_j,
            downtime_s=self.cluster.total_downtime_s(),
            num_servers=self.cluster.num_servers,
            duration_s=duration_s,
            lifetime_years=lifetime_years,
            equivalent_cycles=report.equivalent_full_cycles,
            total_restarts=self.cluster.total_restarts(),
            restart_energy_j=self.cluster.total_restart_energy_j(),
            relay_switches=self.fabric.total_switches(),
            renewable=self.renewable,
            # Empty buckets collapse to None so an injector that never
            # attributed anything (e.g. the empty schedule) leaves the
            # metrics bit-identical to an injector-free run.
            fault_downtime_s=((self.injector.downtime_by_class() or None)
                              if self.injector is not None else None),
        )
        return RunResult(
            scheme=self.policy.name,
            workload=self.trace.name,
            metrics=metrics,
            lifetime=report,
            slots=tuple(slot_records),
            perf=perf,
        )
