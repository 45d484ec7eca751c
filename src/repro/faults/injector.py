"""The deterministic fault-state machine both engines consult.

The fault model is one pure fold plus a little per-run state:

* :func:`fault_state_at` — the pure snapshot of a schedule at one
  simulation time: budget sag, pool reachability, sensor sigma, SC
  leakage, the active fault classes and the persistent steps in force.
* :meth:`FaultInjector.change_ticks` — the ticks of a run's grid on
  which that snapshot can change (every event start and end).  Between
  two of them the fold returns the same state, which lets the batched
  engine advance a lane's injector only on those ticks.

A :class:`FaultInjector` turns a frozen
:class:`~repro.faults.schedule.FaultSchedule` into the per-tick answers
the engines need:

* :meth:`~FaultInjector.begin_tick` — the scalar engine's tick
  prologue: :meth:`~FaultInjector.advance` the snapshot, apply due step
  events (battery aging, ESR drift) to the buffers, drain active SC
  leakage.
* :meth:`~FaultInjector.transform_budget` — the supply-side view
  (brownouts/outages).
* :attr:`~FaultInjector.sc_available` /
  :attr:`~FaultInjector.battery_available` — the power-path view (open
  circuits, converter dropout).
* :meth:`~FaultInjector.observe` — the sensing view: perturb a slot
  observation's telemetry under active sensor noise and stamp
  availability flags.
* :meth:`~FaultInjector.attribute_downtime` — downtime bookkeeping per
  fault class, surfaced in
  :class:`~repro.sim.metrics.RunMetrics.fault_downtime_s`.

Determinism: all stochastic draws come from one private
``numpy.random.Generator`` seeded by the schedule, and draws happen
*only* when a sensor-noise window is active — an injector built from an
empty schedule performs no draws and no mutations, so a zero-fault run
is bit-identical to a run with no injector at all (asserted by test).
"""

from __future__ import annotations

import bisect
import dataclasses
import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..core.policies.base import SlotObservation
from ..errors import SimulationError
from .events import (
    BASELINE_CLASS,
    BatteryCellAging,
    BatteryOpenCircuit,
    ConverterDropout,
    FaultEvent,
    SensorNoise,
    SupercapESRDrift,
    SupercapLeakage,
    UtilityBrownout,
    UtilityOutage,
    WindowedFault,
)
from .schedule import FaultSchedule


@dataclasses.dataclass(frozen=True)
class FaultState:
    """What a schedule says about one instant of a run.

    Attributes:
        budget_fraction: Remaining fraction of the supply budget (the
            deepest active sag; 0.0 under an outage).
        battery_open: A battery open circuit is active.
        converter_down: A converter dropout is active.
        sensor_sigma: Largest active sensor-noise sigma (0.0 if none).
        leakage_w: Summed active SC leakage.
        active_classes: Fault classes in force (canonical order, deduped).
        steps: Indices of the persistent events in force.
    """

    budget_fraction: float = 1.0
    battery_open: bool = False
    converter_down: bool = False
    sensor_sigma: float = 0.0
    leakage_w: float = 0.0
    active_classes: Tuple[str, ...] = ()
    steps: Tuple[int, ...] = ()

    @property
    def sc_available(self) -> bool:
        """Whether the SC pool is reachable."""
        return not self.converter_down

    @property
    def battery_available(self) -> bool:
        """Whether the battery pool is reachable."""
        return not (self.converter_down or self.battery_open)


def fault_state_at(events: Sequence[FaultEvent], now_s: float) -> FaultState:
    """The pure snapshot of ``events`` at simulation time ``now_s``."""
    budget_fraction = 1.0
    battery_open = False
    converter_down = False
    sensor_sigma = 0.0
    leakage_w = 0.0
    active: List[str] = []
    steps: List[int] = []
    for index, event in enumerate(events):
        if not event.active_at(now_s):
            continue
        active.append(event.kind)
        if event.persistent:
            steps.append(index)
        if isinstance(event, UtilityOutage):
            budget_fraction = 0.0
        elif isinstance(event, UtilityBrownout):
            budget_fraction = min(budget_fraction, event.budget_fraction)
        elif isinstance(event, BatteryOpenCircuit):
            battery_open = True
        elif isinstance(event, ConverterDropout):
            converter_down = True
        elif isinstance(event, SensorNoise):
            sensor_sigma = max(sensor_sigma, event.sigma_fraction)
        elif isinstance(event, SupercapLeakage):
            leakage_w += event.leakage_w
    return FaultState(budget_fraction=budget_fraction,
                      battery_open=battery_open,
                      converter_down=converter_down,
                      sensor_sigma=sensor_sigma,
                      leakage_w=leakage_w,
                      # Dedupe while preserving canonical order.
                      active_classes=tuple(dict.fromkeys(active)),
                      steps=tuple(steps))


def _change_times(events: Sequence[FaultEvent]) -> Tuple[float, ...]:
    """Sorted instants at which some event's ``active_at`` flips.

    Every ``active_at`` is ``start_s <= now`` (steps) or
    ``start_s <= now < end_s`` (windows), so between two consecutive
    change times :func:`fault_state_at` returns the same state.
    """
    times = {event.start_s for event in events}
    times.update(event.end_s for event in events
                 if isinstance(event, WindowedFault))
    return tuple(sorted(times))


class FaultInjector:
    """Executes one :class:`FaultSchedule` against one simulation run.

    An injector is single-use: it carries applied-event and downtime
    state, so every run must construct its own (``execute_request``
    does).  All mutation happens through :meth:`advance` (and
    :meth:`begin_tick`, which wraps it), called with non-decreasing
    simulation times.
    """

    def __init__(self, schedule: FaultSchedule) -> None:
        self.schedule = schedule
        self._rng = np.random.default_rng(schedule.seed)
        self._events = schedule.events
        self._changes = _change_times(schedule.events)
        self._next_change_s = -math.inf
        self._applied = [False] * len(schedule.events)
        self._fade_applied = 0.0
        self._now_s = -1.0
        # Snapshot of the world at the current time, moved by advance().
        self._state = FaultState()
        self._downtime_by_class: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # Tick protocol
    # ------------------------------------------------------------------

    def change_ticks(self, dt: float, num_ticks: int) -> List[int]:
        """Ticks of a ``dt`` grid on which the snapshot can change.

        Tick 0 plus, for every change time inside the run, the first
        tick whose time ``tick * dt`` reaches it — the same product the
        engines use for ``now_s``.
        """
        last_s = (num_ticks - 1) * dt
        ticks = {0}
        for time_s in self._changes:
            if time_s > last_s:
                break
            tick = max(0, math.ceil(time_s / dt))
            while tick > 0 and (tick - 1) * dt >= time_s:
                tick -= 1
            while tick * dt < time_s:
                tick += 1
            ticks.add(tick)
        return sorted(ticks)

    def advance(self, now_s: float) -> List[FaultEvent]:
        """Move the snapshot to ``now_s``.

        Returns the persistent events that fall due at ``now_s`` (in
        canonical order, each exactly once per run); the caller applies
        them with :meth:`apply_steps`.
        """
        if now_s < self._now_s:
            raise SimulationError(
                f"fault injector stepped backwards: {now_s} < {self._now_s}")
        self._now_s = now_s
        if now_s < self._next_change_s:
            return []
        self._state = fault_state_at(self._events, now_s)
        index = bisect.bisect_right(self._changes, now_s)
        self._next_change_s = (self._changes[index]
                               if index < len(self._changes) else math.inf)
        due: List[FaultEvent] = []
        for step in self._state.steps:
            if not self._applied[step]:
                self._applied[step] = True
                due.append(self._events[step])
        return due

    def apply_steps(self, events: Sequence[FaultEvent], buffers) -> None:
        """Apply persistent degradation steps to the buffer devices."""
        for event in events:
            if isinstance(event, BatteryCellAging):
                # Compose repeated aging steps: each fades the *remaining*
                # capacity, so total fade is monotone and stays below 1.
                self._fade_applied = (
                    self._fade_applied
                    + event.fade_fraction * (1.0 - self._fade_applied))
                buffers.battery.apply_aging(self._fade_applied,
                                            event.resistance_growth)
            elif isinstance(event, SupercapESRDrift):
                if buffers.sc is not None:
                    buffers.sc.apply_esr_drift(event.esr_multiplier)

    def begin_tick(self, now_s: float, dt: float, buffers) -> None:
        """Advance the fault state to ``now_s`` and act on the buffers.

        Args:
            now_s: Simulation time of the tick start (must not go
                backwards; the injector is single-use).
            dt: Tick length in seconds.
            buffers: The run's :class:`~repro.sim.buffers.HybridBuffers`
                (step events and leakage mutate its devices).
        """
        due = self.advance(now_s)
        if due:
            self.apply_steps(due, buffers)
        leakage_w = self._state.leakage_w
        if leakage_w > 0.0 and buffers.sc is not None:
            buffers.sc.apply_leakage(leakage_w, dt)

    # ------------------------------------------------------------------
    # Per-tick queries (valid until the next begin_tick)
    # ------------------------------------------------------------------

    @property
    def state(self) -> FaultState:
        """The snapshot in force this tick."""
        return self._state

    @property
    def sc_available(self) -> bool:
        """Whether the SC pool is reachable this tick."""
        return self._state.sc_available

    @property
    def battery_available(self) -> bool:
        """Whether the battery pool is reachable this tick."""
        return self._state.battery_available

    @property
    def active_classes(self) -> Tuple[str, ...]:
        """Fault classes in force this tick (canonical order, deduped)."""
        return self._state.active_classes

    def transform_budget(self, budget_w: float) -> float:
        """The supply budget after active brownouts/outages."""
        fraction = self._state.budget_fraction
        if fraction >= 1.0:
            return budget_w
        return budget_w * fraction

    def observe(self, observation: SlotObservation) -> SlotObservation:
        """The controller's (possibly corrupted) view of an observation.

        Under active sensor noise the realized peak/valley telemetry of
        the previous slot is perturbed multiplicatively and the
        observation is flagged ``predictor_corrupted``; pool-availability
        flags always reflect the current tick.  With no sensing or
        power-path fault active, the observation is returned unchanged
        (same object).
        """
        sc_ok = self.sc_available
        battery_ok = self.battery_available
        sigma = self._state.sensor_sigma
        if sigma <= 0.0 and sc_ok and battery_ok:
            return observation

        changes: Dict[str, object] = {
            "sc_available": sc_ok,
            "battery_available": battery_ok,
        }
        if sigma > 0.0:
            peak_gain = max(0.0, 1.0 + sigma * self._rng.standard_normal())
            valley_gain = max(0.0, 1.0 + sigma * self._rng.standard_normal())
            noisy_peak = observation.last_peak_w * peak_gain
            noisy_valley = min(noisy_peak,
                               observation.last_valley_w * valley_gain)
            changes["last_peak_w"] = noisy_peak
            changes["last_valley_w"] = noisy_valley
            changes["predictor_corrupted"] = True
        return dataclasses.replace(observation, **changes)

    # ------------------------------------------------------------------
    # Downtime attribution
    # ------------------------------------------------------------------

    def attribute_downtime(self, delta_s: float) -> None:
        """Charge newly-accrued downtime to the active fault classes.

        Downtime accrued while ``n`` fault classes are active is split
        evenly among them; downtime with no fault active is charged to
        the ``"baseline"`` bucket.  The buckets therefore always sum to
        the run's total downtime.
        """
        if delta_s <= 0.0:
            return
        classes = self._state.active_classes or (BASELINE_CLASS,)
        share = delta_s / len(classes)
        for kind in classes:
            self._downtime_by_class[kind] = (
                self._downtime_by_class.get(kind, 0.0) + share)

    def downtime_by_class(self) -> Dict[str, float]:
        """Per-fault-class downtime attribution so far (sorted by class)."""
        return {kind: self._downtime_by_class[kind]
                for kind in sorted(self._downtime_by_class)}
