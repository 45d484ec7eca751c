"""Lane-parallel storage state for the batched engine.

One :class:`BatchBuffers <repro.sim.batch.BatchBuffers>` advances N
independent (battery, supercap, lifetime-model) triples through the
exact per-tick operation sequence of
:class:`~repro.sim.buffers.HybridBuffers`.  The flows are the kernels of
:mod:`repro.storage.kernels`, the same functions the devices run on
Python floats, here run on (lanes,) arrays; every lane is bit-identical
to its device's own call.

Each batch builds its lane arrays by stacking the devices' attributes
by name, so the constants are hoisted once, by the devices.  What stays
here is specific to lanes:

* masks: a flow acts on the lanes of its mask, and the others keep
  their state;
* :class:`BatchTelemetry`, whose counters drop their lane masks
  wherever the increment is exactly ``0.0`` outside the mask
  (``x + 0.0 == x`` for the non-negative counters involved);
* whole-batch shortcut flags (``fraction_plain``, ``any_r_small``,
  ``any_den_bad``, ``esr_uniform``) that skip a select no lane needs;
* the battery's *deferred* KiBaM step: the tick protocol guarantees at
  most one battery flow per lane per tick, so the charge step and the
  rest-lane step merge into one update at settle time (the wells are
  not read in between).

Persistent degradation (battery aging, ESR drift) has no lane-parallel
copy: the lane is written back to its device, the device's own mutator
runs, and ``rehoist_lane`` re-stacks that lane from the device.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Optional, Sequence, Tuple

import numpy as np

from ..config import SupercapConfig
from . import kernels
from .battery import LeadAcidBattery
from .device import DeviceTelemetry
from .kernels import NUMPY
from .kibam import kibam_coefficients
from .lifetime import AhThroughputLifetimeModel
from .supercap import Supercapacitor


class _LaneLayout:
    """Which attributes of a device become which kind of lane column.

    Floats stack into float arrays (``dtype=float``, so a config value
    given as an ``int`` stays a float lane), flags into bool arrays, and
    lists keep Python floats for :func:`~repro.storage.kernels.pow_lanes`.
    """

    def __init__(self, floats: Tuple[str, ...], flags: Tuple[str, ...] = (),
                 lists: Tuple[str, ...] = ()) -> None:
        self.floats = floats
        self.flags = flags
        self.lists = lists

    def stack(self, target, sources) -> None:
        for name in self.floats:
            setattr(target, name, np.array(
                [getattr(s, name) for s in sources], dtype=float))
        for name in self.flags:
            setattr(target, name, np.array(
                [getattr(s, name) for s in sources], dtype=bool))
        for name in self.lists:
            setattr(target, name, [getattr(s, name) for s in sources])

    def restack(self, target, source, lane: int) -> None:
        """Re-read one lane.  Columns are replaced, not written in place,
        so nothing holding an old column sees it change."""
        for name in self.floats + self.flags:
            column = getattr(target, name).copy()
            column[lane] = getattr(source, name)
            setattr(target, name, column)
        for name in self.lists:
            getattr(target, name)[lane] = getattr(source, name)


_BATTERY_LANES = _LaneLayout(
    floats=("y1", "y2", "capacity_c", "avail_cap", "bound_cap", "mean_v",
            "ocv_empty", "ocv_span", "r", "r_safe", "four_r", "two_r",
            "min_terminal_v", "nominal_j", "floor_j", "floor_c",
            "eff_discharge", "eff_charge", "gassing_threshold",
            "gassing_span", "gassing_penalty", "max_charge_current", "ref",
            "ref_pow"),
    flags=("r_small", "pk_is_one"),
    lists=("inv_pk", "pk_m1"))

_KIBAM_LANES = _LaneLayout(
    floats=("k", "c", "ekt", "one_m_ekt", "one_m_c", "ramp", "den_safe"),
    flags=("den_bad",))

_SC_LANES = _LaneLayout(
    floats=("charge_c", "capacitance", "esr", "four_esr", "two_esr",
            "min_v", "min_v_sq", "max_charge_c", "max_charge_current",
            "nominal_j", "floor_j", "floor_charge"),
    flags=("esr_small",))

_LIFETIME_LANES = _LaneLayout(
    floats=("ref", "low_soc_stress"), flags=("exponent_on",),
    lists=("current_stress_exponent",))


def _read_only_zeros(n: int) -> np.ndarray:
    zeros = np.zeros(n)
    zeros.setflags(write=False)
    return zeros


class BatchTelemetry:
    """Lane-parallel :class:`~repro.storage.device.DeviceTelemetry`.

    The record methods require flow increments (energy, loss, current)
    to already read exactly ``0.0`` on no-flow lanes — the scalar path
    records explicit zeros there, and ``x + 0.0 == x`` for these
    non-negative counters, so those adds run unmasked.
    """

    def __init__(self, n: int) -> None:
        self.energy_in_j = np.zeros(n)
        self.energy_out_j = np.zeros(n)
        self.loss_j = np.zeros(n)
        self.charge_throughput_c = np.zeros(n)
        self.discharge_throughput_c = np.zeros(n)
        self.peak_discharge_current_a = np.zeros(n)
        self.discharge_time_s = np.zeros(n)
        self.charge_time_s = np.zeros(n)
        self.rest_time_s = np.zeros(n)
        self.unmet_requests = np.zeros(n, dtype=np.int64)

    def record_discharge(self, mask: np.ndarray, energy_j: np.ndarray,
                         loss_j: np.ndarray, current: np.ndarray,
                         limited: np.ndarray, dt: float) -> None:
        """Fold one discharge step into lanes in ``mask``."""
        self.energy_out_j = self.energy_out_j + energy_j
        self.loss_j = self.loss_j + loss_j
        self.discharge_throughput_c = (self.discharge_throughput_c
                                       + current * dt)
        # current is 0.0 outside the mask, so the peak race is unmasked;
        # maximum() picks the same value as the scalar's strict-greater
        # update (ties keep an identical float).
        self.peak_discharge_current_a = np.maximum(
            self.peak_discharge_current_a, current)
        # Off-mask lanes add an exact +0.0 to a non-negative counter.
        self.discharge_time_s = self.discharge_time_s + dt * mask
        self.unmet_requests = self.unmet_requests + (mask & limited)

    def record_charge(self, mask: np.ndarray, energy_j: np.ndarray,
                      loss_j: np.ndarray, current: np.ndarray,
                      dt: float) -> None:
        self.energy_in_j = self.energy_in_j + energy_j
        self.loss_j = self.loss_j + loss_j
        self.charge_throughput_c = self.charge_throughput_c + current * dt
        self.charge_time_s = self.charge_time_s + dt * mask

    def record_charge_time_only(self, mask: np.ndarray, dt: float) -> None:
        """A charge step whose flow increments are all exactly zero."""
        self.charge_time_s = self.charge_time_s + dt * mask

    def record_rest(self, mask: np.ndarray, dt: float) -> None:
        self.rest_time_s = self.rest_time_s + dt * mask

    def write_back(self, lane: int, telemetry: DeviceTelemetry) -> None:
        """Copy one lane's counters into a scalar telemetry object."""
        telemetry.energy_in_j = float(self.energy_in_j[lane])
        telemetry.energy_out_j = float(self.energy_out_j[lane])
        telemetry.loss_j = float(self.loss_j[lane])
        telemetry.charge_throughput_c = float(self.charge_throughput_c[lane])
        telemetry.discharge_throughput_c = float(
            self.discharge_throughput_c[lane])
        telemetry.peak_discharge_current_a = float(
            self.peak_discharge_current_a[lane])
        telemetry.discharge_time_s = float(self.discharge_time_s[lane])
        telemetry.charge_time_s = float(self.charge_time_s[lane])
        telemetry.rest_time_s = float(self.rest_time_s[lane])
        telemetry.unmet_requests = int(self.unmet_requests[lane])


class BatchBattery:
    """N lead-acid batteries advanced in lockstep at a fixed ``dt``."""

    def __init__(self, batteries: Sequence[LeadAcidBattery],
                 dt: float) -> None:
        n = len(batteries)
        self.n = n
        self.telemetry = BatchTelemetry(n)
        _BATTERY_LANES.stack(self, batteries)
        self.co = SimpleNamespace()
        _KIBAM_LANES.stack(self.co, [
            kibam_coefficients(b.config.kibam_k_per_s, b.config.kibam_c, dt)
            for b in batteries])
        self.co.any_den_bad = bool(self.co.den_bad.any())
        self.zeros = _read_only_zeros(n)
        # Deferred KiBaM step (see flush_step).
        self._def_mask: Optional[np.ndarray] = None
        self._def_i: Optional[np.ndarray] = None
        self._derive_flags()

    def _derive_flags(self) -> None:
        """Whole-batch shortcuts, recomputed whenever a lane is re-hoisted."""
        self.any_r_small = bool(self.r_small.any())
        # With the wells inside their capacity bounds, the scalar's
        # ``min(1, max(0, y1 / avail_cap))`` SoC fraction is bitwise the
        # bare ratio; the KiBaM clamps maintain the invariant, so it
        # only needs checking when wells are loaded from devices.
        self.fraction_plain = bool(
            (self.y1 >= 0.0).all() and (self.y1 <= self.avail_cap).all())

    def rehoist_lane(self, lane: int, battery: LeadAcidBattery) -> None:
        """Re-read one lane's wells and constants from its battery.

        For after a device mutator (``apply_aging``) ran on a battery
        this lane was written back to; telemetry stays in the batch.
        The KiBaM coefficients depend only on ``(k, c, dt)``, which
        aging leaves alone.
        """
        _BATTERY_LANES.restack(self, battery, lane)
        self._derive_flags()

    # -- state views ---------------------------------------------------

    def stored_j(self) -> np.ndarray:
        return (self.y1 + self.y2) * self.mean_v

    def soc(self) -> np.ndarray:
        return np.maximum(0.0, np.minimum(1.0, self.stored_j()
                                          / self.nominal_j))

    def usable_j(self) -> np.ndarray:
        return np.maximum(0.0, self.stored_j() - self.floor_j)

    # -- flows ---------------------------------------------------------

    def _step(self, mask: Optional[np.ndarray], i: Optional[np.ndarray],
              y0: Optional[np.ndarray] = None) -> None:
        """Step the wells of ``mask`` (``None``: every lane) by ``i``."""
        y1, y2 = kernels.kibam_step(self, NUMPY, self.co, self.y1, self.y2,
                                    i, y0)
        if mask is None:
            self.y1, self.y2 = y1, y2
        else:
            self.y1 = np.where(mask, y1, self.y1)
            self.y2 = np.where(mask, y2, self.y2)

    def flush_step(self, rest_mask: np.ndarray,
                   any_rest: bool) -> None:
        """Apply the deferred charge step merged with the rest step.

        The tick protocol invokes at most one battery flow per lane per
        tick and nothing reads the wells between a charge and settle,
        so one merged update is exactly the scalar sequence.  Deferred
        charge currents are 0.0 on rest lanes (and ``-0.0`` on no-flow
        charge lanes, which the KiBaM expressions absorb identically to
        the scalar's ``+0.0``).
        """
        if self._def_mask is None:
            if any_rest:
                mask = (None if np.count_nonzero(rest_mask) == rest_mask.size
                        else rest_mask)
                self._step(mask, None)
            return
        if any_rest:
            merged = self._def_mask | rest_mask
            if np.count_nonzero(merged) == merged.size:
                merged = None
        else:
            merged = self._def_mask
        self._step(merged, self._def_i)
        self._def_mask = None
        self._def_i = None

    def discharge(self, mask: np.ndarray, power_w: np.ndarray, dt: float):
        """Lane-parallel ``LeadAcidBattery.discharge``.

        Returns ``(achieved, current)``, both 0.0 outside ``mask`` and
        on no-flow lanes.  The KiBaM step runs immediately (callers
        need the post-step SoC).
        """
        (current, _, achieved, loss, limited,
         y1, y2) = kernels.battery_discharge(self, NUMPY, self.co, power_w,
                                             dt, mask)
        self.y1 = np.where(mask, y1, self.y1)
        self.y2 = np.where(mask, y2, self.y2)
        self.telemetry.record_discharge(mask, achieved * dt, loss, current,
                                        limited, dt)
        return achieved, current

    def charge(self, mask: np.ndarray, power_w: np.ndarray, dt: float,
               defer_step: bool = False) -> np.ndarray:
        """Lane-parallel ``LeadAcidBattery.charge``; returns achieved.

        With ``defer_step`` the KiBaM update is stashed for
        :meth:`flush_step` — valid only when no battery state is read
        before the flush and no second flow touches these lanes.
        """
        (current, _, achieved, loss, _, well_i,
         y0) = kernels.battery_charge(self, NUMPY, self.co, power_w, dt, mask)
        if defer_step:
            self._def_mask = mask
            self._def_i = well_i
        else:
            self._step(mask, well_i, y0)
        if well_i is None:
            self.telemetry.record_charge_time_only(mask, dt)
        else:
            self.telemetry.record_charge(mask, achieved * dt, loss, current,
                                         dt)
        return achieved

    def write_back(self, lane: int, battery: LeadAcidBattery) -> None:
        """Install one lane's final wells and telemetry into a battery."""
        battery.y1 = float(self.y1[lane])
        battery.y2 = float(self.y2[lane])
        self.telemetry.write_back(lane, battery.telemetry)


class BatchSupercap:
    """N supercapacitors advanced in lockstep.

    Lanes without an SC pool (``present`` False) stack an empty stand-in
    device and are excluded from every operation mask by the caller.
    """

    def __init__(self, scs: Sequence[Optional[Supercapacitor]]) -> None:
        n = len(scs)
        self.n = n
        self.telemetry = BatchTelemetry(n)
        self.present = np.array([s is not None for s in scs], dtype=bool)
        if not self.present.all():
            parked = Supercapacitor(SupercapConfig(), soc=0.0)
            scs = [parked if s is None else s for s in scs]
        _SC_LANES.stack(self, scs)
        self.zeros = _read_only_zeros(n)
        self._derive_flags()

    def _derive_flags(self) -> None:
        """Whole-batch shortcuts, recomputed whenever a lane is re-hoisted."""
        # True when every *present* lane has a real ESR — the common
        # case, which skips the zero-ESR current formulas entirely
        # (parked lanes compute values that their masks discard).
        self.esr_uniform = not bool((self.esr_small & self.present).any())

    def rehoist_lane(self, lane: int, sc: Supercapacitor) -> None:
        """Re-read one lane's charge and constants from its SC.

        For after a device mutator (``apply_esr_drift``) ran on an SC
        this lane was written back to; telemetry stays in the batch.
        """
        _SC_LANES.restack(self, sc, lane)
        self._derive_flags()

    # -- state views ---------------------------------------------------

    def stored_j(self) -> np.ndarray:
        return kernels.sc_stored(self, NUMPY, self.charge_c / self.capacitance)

    def usable_j(self) -> np.ndarray:
        return np.maximum(0.0, self.stored_j() - self.floor_j)

    # -- flows ---------------------------------------------------------

    def discharge(self, mask: np.ndarray, power_w: np.ndarray,
                  dt: float) -> np.ndarray:
        """Lane-parallel ``Supercapacitor.discharge``; returns achieved."""
        (current, _, achieved, loss, limited,
         self.charge_c) = kernels.sc_discharge(self, NUMPY, power_w, dt, mask)
        self.telemetry.record_discharge(mask, achieved * dt, loss, current,
                                        limited, dt)
        return achieved

    def charge(self, mask: np.ndarray, power_w: np.ndarray,
               dt: float) -> np.ndarray:
        """Lane-parallel ``Supercapacitor.charge``; returns achieved."""
        (current, _, achieved, loss, _,
         self.charge_c) = kernels.sc_charge(self, NUMPY, power_w, dt, mask)
        if achieved is self.zeros:  # no lane could flow
            self.telemetry.record_charge_time_only(mask, dt)
            return achieved
        self.telemetry.record_charge(mask, achieved * dt, loss, current, dt)
        return achieved

    def rest(self, mask: np.ndarray, dt: float) -> None:
        self.telemetry.record_rest(mask, dt)

    def apply_leakage(self, mask: np.ndarray, power_w: np.ndarray,
                      dt: float) -> None:
        """Lane-parallel ``Supercapacitor.apply_leakage``.

        The drained energy leaves as internal loss only.  Lanes outside
        ``mask``, with no leakage or with an empty cell keep their
        charge and counters untouched, exactly like the device.
        """
        leak = kernels.sc_leakage(self, NUMPY, power_w, dt, mask)
        if leak is None:
            return
        active, self.charge_c, leaked_j = leak
        telemetry = self.telemetry
        telemetry.loss_j = np.where(active, telemetry.loss_j + leaked_j,
                                    telemetry.loss_j)

    def write_back(self, lane: int, sc: Supercapacitor) -> None:
        sc.charge_c = float(self.charge_c[lane])
        self.telemetry.write_back(lane, sc.telemetry)


class BatchLifetime:
    """Lane-parallel :class:`AhThroughputLifetimeModel` counters."""

    def __init__(self, models: Sequence[AhThroughputLifetimeModel]) -> None:
        n = len(models)
        self.n = n
        _LIFETIME_LANES.stack(self, models)
        self.effective_c = np.zeros(n)
        self.raw_c = np.zeros(n)
        self.observation_s = np.zeros(n)

    def observe_discharge(self, mask: np.ndarray, current: np.ndarray,
                          dt: float, soc: np.ndarray) -> None:
        # current is 0.0 outside `mask`, so the throughput adds run
        # unmasked (the weight of a zero current contributes exactly
        # zero).
        charge_c = current * dt
        weight = kernels.wear_weight(self, NUMPY, current, soc, mask)
        self.raw_c = self.raw_c + charge_c
        self.effective_c = self.effective_c + charge_c * weight
        self.observation_s = self.observation_s + dt * mask

    def observe_idle(self, mask: Optional[np.ndarray], dt: float) -> None:
        """Extend the observation window; ``mask=None`` = every lane."""
        if mask is None:
            self.observation_s = self.observation_s + dt
        else:
            self.observation_s = self.observation_s + dt * mask

    def write_back(self, lane: int,
                   model: AhThroughputLifetimeModel) -> None:
        model._effective_throughput_c = float(self.effective_c[lane])
        model._raw_throughput_c = float(self.raw_c[lane])
        model._observation_s = float(self.observation_s[lane])


__all__ = [
    "BatchBattery",
    "BatchLifetime",
    "BatchSupercap",
    "BatchTelemetry",
]
