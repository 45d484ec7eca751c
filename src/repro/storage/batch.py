"""Vectorized lane-parallel storage state for the batched engine.

One :class:`BatchBuffers <repro.sim.batch.BatchBuffers>` advances N
independent (battery, supercap, lifetime-model) triples through the
exact per-tick operation sequence of
:class:`~repro.sim.buffers.HybridBuffers` — with every lane's
arithmetic bit-identical to the scalar device models.  The scalar
models stay the oracle; this module re-derives each of their
expressions over a leading lane axis, preserving operand order, branch
structure (as masks), and epsilon thresholds exactly.

Two portability traps drive the helper functions here:

* ``np.power`` takes a SIMD path whose results differ from CPython's
  ``**`` in the last ulps on this platform, so every Peukert/lifetime
  power law is evaluated element-by-element through Python ``pow`` on
  the (rare) lanes that need it (:func:`pow_lanes`).
* Python's ``min``/``max`` builtins are *selections*, not IEEE
  min/max — ``min(a, b)`` returns ``b`` only when ``b < a`` — and the
  scalar models rely on that NaN/tie behaviour.  :func:`sel_min` /
  :func:`sel_max` replicate the selection semantics with ``np.where``.
  On the hot flow paths below, ``np.minimum``/``np.maximum`` are used
  instead where the operands are provably finite (no NaN reaches
  them), because for finite operands the selection and the IEEE
  min/max agree on every value — the only divergence, the sign of a
  ``+0.0``/``-0.0`` tie, is absorbed by the downstream no-flow
  zeroing and never feeds a sign-sensitive operation.

Throughput notes (this module is the batched engine's inner loop):

* per-lane constants and constant *subexpressions* — ``4R``,
  ``1 - c``, the KiBaM well capacities — are hoisted at construction;
  each hoisted value is the bitwise result of the scalar expression;
* identical-valued subexpressions (``y1 + y2``, the OCV, the stored
  energy) are computed once per flow and reused;
* telemetry counters drop their lane masks wherever the increment is
  exactly ``0.0`` outside the mask (``x + 0.0 == x`` for the
  non-negative counters involved);
* the battery's KiBaM well update may be *deferred*: the tick protocol
  guarantees at most one battery flow per lane per tick, so the charge
  step and the rest-lane step merge into one vectorized update at
  settle time (the wells are not read in between).

Persistent degradation (battery aging, ESR drift) has no lane-parallel
copy: the lane is written back to its scalar device, the device's own
mutator runs, and :meth:`BatchBattery.rehoist_lane` /
:meth:`BatchSupercap.rehoist_lane` re-read that lane through the
constructor — the hoisting exists once.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..storage.battery import LeadAcidBattery
from ..storage.device import DeviceTelemetry
from ..storage.kibam import KiBaMState, kibam_coefficients
from ..storage.lifetime import AhThroughputLifetimeModel
from ..storage.supercap import Supercapacitor

#: Device-model epsilon (``storage.battery._EPSILON`` and
#: ``storage.supercap._EPSILON``).
_DEVICE_EPS = 1e-12


def sel_min(a, b):
    """Elementwise Python ``min(a, b)``: ``b`` if ``b < a`` else ``a``."""
    return np.where(b < a, b, a)


def sel_max(a, b):
    """Elementwise Python ``max(a, b)``: ``b`` if ``b > a`` else ``a``."""
    return np.where(b > a, b, a)


def max0(x):
    """Elementwise Python ``max(0.0, x)``."""
    return np.where(x > 0.0, x, 0.0)


def clamp01(x):
    """Elementwise ``units.clamp(x, 0.0, 1.0)`` = ``max(0, min(1, x))``."""
    return sel_max(0.0, sel_min(1.0, x))


def pow_lanes(base: np.ndarray, exponents: Sequence[float],
              mask: np.ndarray) -> np.ndarray:
    """``base[i] ** exponents[i]`` via CPython pow on masked lanes.

    Lanes outside ``mask`` read 0.0 (callers select them away).  The
    loop is over ``mask``'s population count, which on the hot paths is
    the handful of lanes actually above their Peukert reference.
    """
    out = np.zeros(base.shape[0])
    idx = np.flatnonzero(mask)
    values = base[idx].tolist()
    # Per-element CPython pow: np.power's SIMD path is not bit-identical
    # to the scalar models' `**`.
    out[idx] = [v ** exponents[i]
                for i, v in zip(idx.tolist(), values)]
    return out


def _splice_lane(twin, fresh, lane: int) -> None:
    """Overwrite one lane of ``twin`` with a one-lane twin's hoisted values.

    Every writable (lanes,) array and per-lane list of ``fresh`` lands
    in lane ``lane``.  Arrays are replaced, not written in place, so
    nothing holding an old column sees it change.
    """
    for name, value in vars(fresh).items():
        if isinstance(value, np.ndarray) and value.flags.writeable:
            column = getattr(twin, name).copy()
            column[lane] = value[0]
            setattr(twin, name, column)
        elif isinstance(value, list):
            getattr(twin, name)[lane] = value[0]


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
    """N lead-acid batteries advanced in lockstep.

    Per-lane constants are hoisted from each scalar battery at
    construction; the two well contents are the only per-tick state.
    """

    def __init__(self, batteries: Sequence[LeadAcidBattery],
                 dt: float) -> None:
        n = len(batteries)
        self.n = n
        self.dt = dt
        self.telemetry = BatchTelemetry(n)

        def const(fn):
            return np.array([fn(b) for b in batteries], dtype=float)

        self.y1 = const(lambda b: b.state.available_c)
        self.y2 = const(lambda b: b.state.bound_c)
        self.capacity_c = const(lambda b: b.state.capacity_c)
        self.c = const(lambda b: b.state.c)
        self.k = const(lambda b: b.state.k)
        self.mean_v = const(lambda b: b._mean_voltage)
        self.ocv_empty = const(lambda b: b._ocv_empty)
        self.ocv_span = const(lambda b: b._ocv_span)
        self.r = const(lambda b: b._aged_resistance)
        self.soc_floor = const(lambda b: b._soc_floor)
        # nominal = config_nominal * (1 - age), the expression the scalar
        # paths evaluate per call from two constants.
        self.nominal_j = const(
            lambda b: b._config_nominal_j * (1.0 - b._age_fraction))
        self.floor_j = self.soc_floor * self.nominal_j
        self.floor_c = self.soc_floor * self.capacity_c
        # Hoisted scalar subexpressions (each the bitwise result the
        # scalar code computes fresh every call).
        self.avail_cap = self.capacity_c * self.c
        self.bound_cap = self.capacity_c * (1.0 - self.c)
        self.one_m_c = 1.0 - self.c
        self.four_r = 4.0 * self.r

        cfg = [b.config for b in batteries]
        self.eff_discharge = np.array(
            [c.discharge_efficiency for c in cfg])
        self.eff_charge = np.array([c.charge_efficiency for c in cfg])
        self.gassing_threshold = np.array(
            [c.gassing_soc_threshold for c in cfg])
        self.gassing_penalty = np.array([c.gassing_penalty for c in cfg])
        self.gassing_span = np.array(
            [1.0 - c.gassing_soc_threshold for c in cfg])
        self.max_charge_current = np.array(
            [c.max_charge_current_a for c in cfg])
        self.min_terminal_v = np.array(
            [c.min_terminal_voltage_v for c in cfg])
        self.ref = np.array([c.reference_current_a for c in cfg])
        self.pk_is_one = np.array(
            [c.peukert_exponent == 1.0 for c in cfg], dtype=bool)
        # Scalar-pow constants, evaluated per lane through CPython pow
        # exactly as the scalar call sites do on every invocation.
        self.ref_pow = np.array(
            [c.reference_current_a ** (c.peukert_exponent - 1.0)
             for c in cfg])
        self.inv_pk: List[float] = [
            1.0 / c.peukert_exponent for c in cfg]
        self.pk_m1: List[float] = [
            c.peukert_exponent - 1.0 for c in cfg]

        self.r_small = self.r <= _DEVICE_EPS
        self.r_safe = np.where(self.r_small, 1.0, self.r)
        self.two_r = 2.0 * self.r_safe

        coeffs = [kibam_coefficients(c.kibam_k_per_s, c.kibam_c, dt)
                  for c in cfg]
        self.ekt = np.array([co.ekt for co in coeffs])
        self.one_m_ekt = np.array([co.one_m_ekt for co in coeffs])
        self.ramp = np.array([co.kdt_m_one_m_ekt for co in coeffs])
        self.denominator = np.array([co.denominator for co in coeffs])
        self.den_bad = self.denominator <= 0.0
        self.den_safe = np.where(self.den_bad, 1.0, self.denominator)

        self._zeros = np.zeros(n)
        self._zeros.setflags(write=False)
        # Deferred KiBaM step (see flush_step).
        self._def_mask: Optional[np.ndarray] = None
        self._def_i: Optional[np.ndarray] = None
        self._derive_flags()

    def _derive_flags(self) -> None:
        """Whole-batch shortcuts, recomputed whenever a lane is re-hoisted."""
        self.any_r_small = bool(self.r_small.any())
        self.any_den_bad = bool(self.den_bad.any())
        # With the wells inside their capacity bounds, the scalar's
        # ``min(1, max(0, y1 / avail_cap))`` SoC fraction is bitwise the
        # bare ratio; the KiBaM clamps maintain the invariant, so it
        # only needs checking when wells are loaded from devices.
        self.fraction_plain = bool(
            (self.y1 >= 0.0).all() and (self.y1 <= self.avail_cap).all())

    def rehoist_lane(self, lane: int, battery: LeadAcidBattery) -> None:
        """Re-read one lane's wells and constants from its scalar battery.

        For after a scalar mutator (``apply_aging``) ran on a battery
        this lane was written back to; telemetry stays in the batch.
        """
        _splice_lane(self, BatchBattery([battery], self.dt), lane)
        self._derive_flags()

    # -- state views ---------------------------------------------------

    def open_circuit_voltage(self) -> np.ndarray:
        fraction = np.minimum(1.0, np.maximum(0.0, self.y1 / self.avail_cap))
        return self.ocv_empty + self.ocv_span * fraction

    def stored_j(self) -> np.ndarray:
        return (self.y1 + self.y2) * self.mean_v

    def soc(self) -> np.ndarray:
        return np.maximum(0.0, np.minimum(1.0, self.stored_j()
                                          / self.nominal_j))

    def usable_j(self) -> np.ndarray:
        return np.maximum(0.0, self.stored_j() - self.floor_j)

    # -- internals -----------------------------------------------------

    def _kibam_step(self, mask: Optional[np.ndarray],
                    i: Optional[np.ndarray],
                    y0: Optional[np.ndarray] = None) -> None:
        """Advance the wells; ``mask=None`` means every lane.

        ``i=None`` is the zero-current (rest/no-flow) step: the scalar
        expression's ``i`` terms subtract an exact ``±0.0``, which
        leaves every float unchanged, so they are skipped wholesale.
        """
        y1, y2 = self.y1, self.y2
        if y0 is None:
            y0 = y1 + y2
        k = self.k
        if i is None:
            new_y1 = (y1 * self.ekt
                      + (y0 * k * self.c) * self.one_m_ekt / k)
            new_y2 = (y2 * self.ekt
                      + y0 * self.one_m_c * self.one_m_ekt)
        else:
            new_y1 = (y1 * self.ekt
                      + (y0 * k * self.c - i) * self.one_m_ekt / k
                      - i * self.c * self.ramp / k)
            new_y2 = (y2 * self.ekt
                      + y0 * self.one_m_c * self.one_m_ekt
                      - i * self.one_m_c * self.ramp / k)
        new_y1 = np.where(new_y1 < 0.0, 0.0,
                          np.where(new_y1 > self.avail_cap,
                                   self.avail_cap, new_y1))
        new_y2 = np.where(new_y2 < 0.0, 0.0,
                          np.where(new_y2 > self.bound_cap,
                                   self.bound_cap, new_y2))
        if mask is None:
            self.y1 = new_y1
            self.y2 = new_y2
        else:
            self.y1 = np.where(mask, new_y1, y1)
            self.y2 = np.where(mask, new_y2, y2)

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
                self._kibam_step(mask, None)
            return
        if any_rest:
            merged = self._def_mask | rest_mask
            if np.count_nonzero(merged) == merged.size:
                merged = None
        else:
            merged = self._def_mask
        self._kibam_step(merged, self._def_i)
        self._def_mask = None
        self._def_i = None

    def _invert_peukert(self, effective: np.ndarray,
                        mask: np.ndarray) -> np.ndarray:
        identity = (effective <= self.ref) | self.pk_is_one
        need = mask & ~identity
        if not np.count_nonzero(need):
            return effective
        powed = pow_lanes(effective * self.ref_pow, self.inv_pk, need)
        return np.where(identity, effective, powed)

    def _peukert_multiplier(self, current: np.ndarray,
                            mask: np.ndarray) -> Optional[np.ndarray]:
        """The Peukert drain multiplier, or None when it is 1.0 everywhere."""
        identity = (current <= self.ref) | self.pk_is_one
        need = mask & ~identity
        if not np.count_nonzero(need):
            return None
        powed = pow_lanes(current / self.ref, self.pk_m1, need)
        return np.where(identity, 1.0, powed)

    def _charge_efficiency_now(self, soc: np.ndarray) -> np.ndarray:
        gassing = soc > self.gassing_threshold
        if not np.count_nonzero(gassing):
            return self.eff_charge
        fraction = np.minimum(
            1.0, (soc - self.gassing_threshold) / self.gassing_span)
        gassed = self.eff_charge * (1.0 - self.gassing_penalty * fraction)
        return np.where(gassing, gassed, self.eff_charge)

    # -- flows ---------------------------------------------------------

    def discharge(self, mask: np.ndarray, power_w: np.ndarray, dt: float):
        """Lane-parallel ``LeadAcidBattery.discharge``.

        Returns ``(achieved, current)``, both 0.0 outside ``mask`` and
        on no-flow lanes.  The KiBaM step runs immediately (callers
        need the post-step SoC).
        """
        y1, y2 = self.y1, self.y2
        y0 = y1 + y2
        fraction = y1 / self.avail_cap
        if not self.fraction_plain:
            fraction = np.minimum(1.0, np.maximum(0.0, fraction))
        v_oc = self.ocv_empty + self.ocv_span * fraction
        stored = y0 * self.mean_v
        noflow = (power_w <= 0.0) | (stored - self.floor_j <= 1e-9)
        pre_active = mask & ~noflow

        # Request current: smaller root of I (V_oc - I R) = P.
        discriminant = v_oc * v_oc - self.four_r * power_w
        neg = discriminant < 0.0
        if np.count_nonzero(neg):
            root = np.sqrt(np.where(neg, 0.0, discriminant))
            i_request = np.where(neg, v_oc / self.two_r,
                                 (v_oc - root) / self.two_r)
        else:
            i_request = (v_oc - np.sqrt(discriminant)) / self.two_r
        if self.any_r_small:
            i_request = np.where(self.r_small, power_w / v_oc, i_request)
            i_voltage = np.where(
                self.r_small, np.inf,
                np.maximum(0.0, (v_oc - self.min_terminal_v) / self.r_safe))
        else:
            # Limit (1): terminal voltage above the brown-out floor.
            i_voltage = np.maximum(
                0.0, (v_oc - self.min_terminal_v) / self.r_safe)
        # Limit (2): available well must not empty (Peukert-scaled).
        numerator = (self.k * y1 * self.ekt
                     + y0 * self.k * self.c * self.one_m_ekt)
        if self.any_den_bad:
            i_kibam_eff = np.where(
                self.den_bad, 0.0,
                np.maximum(0.0, numerator / self.den_safe))
        else:
            i_kibam_eff = np.maximum(0.0, numerator / self.den_safe)
        i_kibam_eff = i_kibam_eff * self.eff_discharge
        i_kibam = self._invert_peukert(i_kibam_eff, pre_active)
        # Limit (3): total charge must stay above the DoD floor.
        budget_c = np.maximum(0.0, y0 - self.floor_c)
        i_floor_eff = budget_c / dt * self.eff_discharge
        i_floor = self._invert_peukert(i_floor_eff, pre_active)
        i_limit = np.maximum(
            0.0, np.minimum(np.minimum(i_voltage, i_kibam), i_floor))

        current = np.minimum(i_request, i_limit)
        noflow = noflow | (current <= _DEVICE_EPS)
        active = mask & ~noflow
        current = np.where(active, current, 0.0)

        terminal_v = v_oc - current * self.r
        # current is exactly 0.0 off-active, and v_oc is finite
        # positive, so the products below are exact +0.0 there —
        # no masking needed.
        achieved = current * terminal_v
        limited_active = achieved < power_w - 1e-6

        multiplier = self._peukert_multiplier(current, active)
        if multiplier is None:
            drain = current / self.eff_discharge
        else:
            drain = current * multiplier / self.eff_discharge
        ir_loss = current * current * self.r * dt
        internal_loss = (drain - current) * terminal_v * dt
        loss = ir_loss + np.maximum(0.0, internal_loss)

        self._kibam_step(mask, drain, y0=y0)
        self.telemetry.record_discharge(
            mask, achieved * dt, loss, current,
            np.where(noflow, power_w > 0.0, limited_active), dt)
        return achieved, current

    def charge(self, mask: np.ndarray, power_w: np.ndarray, dt: float,
               defer_step: bool = False) -> np.ndarray:
        """Lane-parallel ``LeadAcidBattery.charge``; returns achieved.

        With ``defer_step`` the KiBaM update is stashed for
        :meth:`flush_step` — valid only when no battery state is read
        before the flush and no second flow touches these lanes.
        """
        y1, y2 = self.y1, self.y2
        y0 = y1 + y2
        fraction = y1 / self.avail_cap
        if not self.fraction_plain:
            fraction = np.minimum(1.0, np.maximum(0.0, fraction))
        v_oc = self.ocv_empty + self.ocv_span * fraction
        stored = y0 * self.mean_v
        noflow = (power_w <= 0.0) | (self.nominal_j - stored <= 1e-9)
        active = mask & ~noflow
        if not np.count_nonzero(active):
            # Every invoked lane is a no-flow: zero increments, i=0 step.
            if defer_step:
                self._def_mask = mask
                self._def_i = None
            else:
                self._kibam_step(mask, None, y0=y0)
            self.telemetry.record_charge_time_only(mask, dt)
            return self._zeros

        discriminant = v_oc * v_oc + self.four_r * power_w
        i_request = (-v_oc + np.sqrt(discriminant)) / self.two_r
        if self.any_r_small:
            i_request = np.where(self.r_small, power_w / v_oc, i_request)

        soc = np.maximum(0.0, np.minimum(1.0, stored / self.nominal_j))
        efficiency = self._charge_efficiency_now(soc)
        numerator = (self.avail_cap - y1 * self.ekt
                     - y0 * self.c * self.one_m_ekt) * self.k
        if self.any_den_bad:
            kibam_max = np.where(
                self.den_bad, 0.0,
                np.maximum(0.0, numerator / self.den_safe))
        else:
            kibam_max = np.maximum(0.0, numerator / self.den_safe)
        i_kibam = kibam_max / efficiency
        headroom_c = np.maximum(0.0, self.capacity_c - y0)
        i_headroom = headroom_c / dt / efficiency
        i_limit = np.maximum(
            0.0, np.minimum(np.minimum(self.max_charge_current, i_kibam),
                            i_headroom))

        current = np.minimum(i_request, i_limit)
        noflow = noflow | (current <= _DEVICE_EPS)
        active = mask & ~noflow
        current = np.where(active, current, 0.0)

        terminal_v = v_oc + current * self.r
        # Exact +0.0 off-active (see discharge).
        achieved = current * terminal_v
        stored_current = current * efficiency
        ir_loss = current * current * self.r * dt
        coulombic_loss = (current - stored_current) * v_oc * dt
        loss = ir_loss + coulombic_loss

        # stored_current is exactly 0.0 outside `active`, so its
        # negation is the scalar's ``0.0`` no-flow current up to the
        # sign of zero, which every KiBaM term absorbs.
        if defer_step:
            self._def_mask = mask
            self._def_i = -stored_current
        else:
            self._kibam_step(mask, -stored_current, y0=y0)
        self.telemetry.record_charge(mask, achieved * dt, loss, current, dt)
        return achieved

    def write_back(self, lane: int, battery: LeadAcidBattery) -> None:
        """Install one lane's final wells and telemetry into a battery."""
        battery._state = KiBaMState(
            available_c=float(self.y1[lane]),
            bound_c=float(self.y2[lane]),
            capacity_c=float(self.capacity_c[lane]),
            c=float(self.c[lane]),
            k=float(self.k[lane]),
        )
        self.telemetry.write_back(lane, battery.telemetry)


class BatchSupercap:
    """N supercapacitors advanced in lockstep.

    Lanes without an SC pool (``present`` False) carry benign parked
    constants and are excluded from every operation mask by the caller.
    """

    def __init__(self, scs: Sequence[Optional[Supercapacitor]],
                 dt: float) -> None:
        n = len(scs)
        self.n = n
        self.dt = dt
        self.telemetry = BatchTelemetry(n)
        self.present = np.array([s is not None for s in scs], dtype=bool)

        def const(fn, parked):
            return np.array(
                [parked if s is None else fn(s) for s in scs], dtype=float)

        self.charge_c = const(lambda s: s._charge_c, 0.0)
        self.capacitance = const(lambda s: s._capacitance, 1.0)
        self.esr = const(lambda s: s._esr, 0.0)
        self.min_v = const(lambda s: s._min_v, 0.0)
        self.min_v_sq = const(lambda s: s._min_v_sq, 0.0)
        self.max_charge_c = const(lambda s: s._max_charge_c, 0.0)
        self.max_charge_current = const(lambda s: s._max_charge_current, 0.0)
        self.nominal_j = const(lambda s: s._nominal_j, 1.0)
        self.soc_floor = const(lambda s: s._soc_floor, 0.0)
        self.floor_j = self.soc_floor * self.nominal_j
        # _floor_voltage(): a pure function of constants; evaluated per
        # lane through math.sqrt exactly as the scalar method does.
        self.floor_voltage = const(lambda s: s._floor_voltage(), 0.0)
        self.floor_charge = self.floor_voltage * self.capacitance
        self.four_esr = 4.0 * self.esr

        self.esr_small = self.esr <= _DEVICE_EPS
        self.esr_safe = np.where(self.esr_small, 1.0, self.esr)
        self.two_esr = 2.0 * self.esr_safe

        self._zeros = np.zeros(n)
        self._zeros.setflags(write=False)
        self._derive_flags()

    def _derive_flags(self) -> None:
        """Whole-batch shortcuts, recomputed whenever a lane is re-hoisted."""
        # True when every *present* lane has a real ESR — the common
        # case, which skips the zero-ESR current formulas entirely
        # (parked lanes compute garbage that their masks discard).
        self.esr_uniform = not bool((self.esr_small & self.present).any())

    def rehoist_lane(self, lane: int, sc: Supercapacitor) -> None:
        """Re-read one lane's charge and constants from its scalar SC.

        For after a scalar mutator (``apply_esr_drift``) ran on a device
        this lane was written back to; telemetry stays in the batch.
        """
        _splice_lane(self, BatchSupercap([sc], self.dt), lane)
        self._derive_flags()

    # -- state views ---------------------------------------------------

    def stored_j(self) -> np.ndarray:
        v = self.charge_c / self.capacitance
        stored = 0.5 * self.capacitance * (v * v - self.min_v_sq)
        return np.where(v <= self.min_v, 0.0, stored)

    def usable_j(self) -> np.ndarray:
        return np.maximum(0.0, self.stored_j() - self.floor_j)

    # -- flows ---------------------------------------------------------

    def discharge(self, mask: np.ndarray, power_w: np.ndarray,
                  dt: float) -> np.ndarray:
        """Lane-parallel ``Supercapacitor.discharge``; returns achieved."""
        cap = self.capacitance
        v = self.charge_c / cap
        stored = np.where(v <= self.min_v, 0.0,
                          0.5 * cap * (v * v - self.min_v_sq))
        noflow = (power_w <= 0.0) | (stored - self.floor_j <= 1e-9)

        discriminant = v * v - self.four_esr * power_w
        neg = discriminant < 0.0
        if np.count_nonzero(neg):
            root = np.sqrt(np.where(neg, 0.0, discriminant))
            with_esr = np.where(neg, v / self.two_esr,
                                (v - root) / self.two_esr)
        else:
            with_esr = (v - np.sqrt(discriminant)) / self.two_esr
        if self.esr_uniform:
            i_request = with_esr
        else:
            no_esr = np.where(v > _DEVICE_EPS,
                              power_w / np.where(v > _DEVICE_EPS, v, 1.0), 0.0)
            i_request = np.where(self.esr_small, no_esr, with_esr)

        # Mid-step refinement with the scalar loop's two break points
        # emulated by a frozen mask (a broken lane keeps its current).
        frozen = None
        half_dt = 0.5 * dt  # exact; (0.5*i)*dt == i*(0.5*dt) bitwise
        for _ in range(3):
            v_mid = v - i_request * half_dt / cap
            low = v_mid <= _DEVICE_EPS
            frozen = low if frozen is None else frozen | low
            any_frozen = np.count_nonzero(frozen)
            discriminant = v_mid * v_mid - self.four_esr * power_w
            neg = discriminant < 0.0
            if np.count_nonzero(neg):
                hit_max = neg if not any_frozen else ~frozen & neg
                i_request = np.where(hit_max & ~self.esr_small,
                                     v_mid / self.two_esr, i_request)
                frozen = frozen | hit_max
                any_frozen = True
                root = np.sqrt(np.where(neg, 0.0, discriminant))
            else:
                root = np.sqrt(discriminant)
            if self.esr_uniform:
                refined = (v_mid - root) / self.two_esr
            else:
                refined = np.where(
                    self.esr_small,
                    power_w / (np.where(frozen, 1.0, v_mid) if any_frozen
                             else v_mid),
                    (v_mid - root) / self.two_esr)
            if any_frozen:
                i_request = np.where(frozen, i_request, refined)
            else:
                i_request = refined

        budget_c = np.maximum(0.0, self.charge_c - self.floor_charge)
        i_limit = budget_c / dt

        current = np.minimum(i_request, i_limit)
        noflow = noflow | (current <= _DEVICE_EPS)
        active = mask & ~noflow
        current = np.where(active, current, 0.0)

        v_end = (self.charge_c - current * dt) / cap
        v_mid = 0.5 * (v + v_end)
        terminal_v = v_mid - current * self.esr
        # current is exactly 0.0 off-active and v_mid >= 0, so the
        # product is an exact +0.0 there.
        achieved = current * terminal_v
        limited_active = achieved < power_w * (1.0 - 1e-6) - 1e-9
        loss = current * current * self.esr * dt

        # Off-active lanes subtract an exact 0.0 from a non-negative
        # charge, and maximum(0, x) returns x for x >= +0.0.
        self.charge_c = np.maximum(0.0, self.charge_c - current * dt)
        self.telemetry.record_discharge(
            mask, achieved * dt, loss, current,
            np.where(noflow, power_w > 0.0, limited_active), dt)
        return achieved

    def charge(self, mask: np.ndarray, power_w: np.ndarray,
               dt: float) -> np.ndarray:
        """Lane-parallel ``Supercapacitor.charge``; returns achieved."""
        cap = self.capacitance
        v = self.charge_c / cap
        stored = np.where(v <= self.min_v, 0.0,
                          0.5 * cap * (v * v - self.min_v_sq))
        noflow = (power_w <= 0.0) | (self.nominal_j - stored <= 1e-9)
        active = mask & ~noflow
        if not np.count_nonzero(active):
            self.telemetry.record_charge_time_only(mask, dt)
            return self._zeros

        discriminant = v * v + self.four_esr * power_w
        with_esr = (-v + np.sqrt(discriminant)) / self.two_esr
        if self.esr_uniform:
            i_request = with_esr
        else:
            no_esr = power_w / sel_max(sel_max(v, self.min_v), _DEVICE_EPS)
            i_request = np.where(self.esr_small, no_esr, with_esr)

        half_dt = 0.5 * dt  # exact; (0.5*i)*dt == i*(0.5*dt) bitwise
        for _ in range(3):
            v_mid = v + i_request * half_dt / cap
            discriminant = v_mid * v_mid + self.four_esr * power_w
            with_esr = (-v_mid + np.sqrt(discriminant)) / self.two_esr
            if self.esr_uniform:
                i_request = with_esr
            else:
                no_esr = power_w / sel_max(v_mid, _DEVICE_EPS)
                i_request = np.where(self.esr_small, no_esr, with_esr)

        headroom_c = np.maximum(0.0, self.max_charge_c - self.charge_c)
        current = np.minimum(np.minimum(i_request, self.max_charge_current),
                             headroom_c / dt)
        noflow = noflow | (current <= _DEVICE_EPS)
        active = mask & ~noflow
        current = np.where(active, current, 0.0)

        v_end = (self.charge_c + current * dt) / cap
        v_mid = 0.5 * (v + v_end)
        terminal_v = v_mid + current * self.esr
        achieved = current * terminal_v
        loss = current * current * self.esr * dt

        # current is exactly 0.0 outside `active`, so the unmasked add
        # leaves inactive lanes' (non-negative) charge unchanged.
        self.charge_c = self.charge_c + current * dt
        self.telemetry.record_charge(mask, achieved * dt, loss, current, dt)
        return achieved

    def rest(self, mask: np.ndarray, dt: float) -> None:
        self.telemetry.record_rest(mask, dt)

    def apply_leakage(self, mask: np.ndarray, power_w: np.ndarray,
                      dt: float) -> None:
        """Lane-parallel ``Supercapacitor.apply_leakage``.

        The drained energy leaves as internal loss only.  Lanes outside
        ``mask``, with no leakage or with an empty cell keep their
        charge and counters untouched, exactly like the scalar's early
        return.
        """
        cap = self.capacitance
        v = self.charge_c / cap
        active = mask & (power_w > 0.0) & (v > _DEVICE_EPS)
        if not np.count_nonzero(active):
            return
        current = power_w / np.where(active, v, 1.0)
        drained_c = sel_min(self.charge_c, current * dt)
        v_end = (self.charge_c - drained_c) / cap
        leaked_j = 0.5 * (v + v_end) * drained_c
        self.charge_c = np.where(active, self.charge_c - drained_c,
                                 self.charge_c)
        telemetry = self.telemetry
        telemetry.loss_j = np.where(active, telemetry.loss_j + leaked_j,
                                    telemetry.loss_j)

    def write_back(self, lane: int, sc: Supercapacitor) -> None:
        sc._charge_c = float(self.charge_c[lane])
        self.telemetry.write_back(lane, sc.telemetry)


class BatchLifetime:
    """Lane-parallel :class:`AhThroughputLifetimeModel` counters."""

    def __init__(self, models: Sequence[AhThroughputLifetimeModel]) -> None:
        n = len(models)
        self.n = n
        self.ref = np.array(
            [m.config.reference_current_a for m in models])
        self.exponent_on = np.array(
            [bool(m.current_stress_exponent) for m in models], dtype=bool)
        self.exponents: List[float] = [
            m.current_stress_exponent for m in models]
        self.stress = np.array([m.low_soc_stress for m in models])
        self.effective_c = np.zeros(n)
        self.raw_c = np.zeros(n)
        self.observation_s = np.zeros(n)

    def observe_discharge(self, mask: np.ndarray, current: np.ndarray,
                          dt: float, soc: np.ndarray) -> None:
        # current is 0.0 outside `mask`, so the throughput adds run
        # unmasked (scalar weight math on a zero current contributes
        # exactly zero).
        charge_c = current * dt
        soc_weight = 1.0 + self.stress * np.maximum(0.0, 1.0 - soc)
        stressed = (current > self.ref) & self.exponent_on
        need = mask & stressed
        if np.count_nonzero(need):
            current_weight = np.where(
                stressed,
                pow_lanes(current / self.ref, self.exponents, need), 1.0)
            weight = current_weight * soc_weight
        else:
            # current_weight is 1.0 everywhere; 1.0 * w == w bitwise.
            weight = soc_weight
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
    "clamp01",
    "max0",
    "pow_lanes",
    "sel_max",
    "sel_min",
]
