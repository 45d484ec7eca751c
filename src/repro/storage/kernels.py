"""Storage physics written once, for one device or for N lanes.

Every battery, supercapacitor and wear flow is one *kernel*: a function
of a state object ``s`` and an array namespace ``xp``.  The state object
is a device (:class:`~repro.storage.battery.LeadAcidBattery`,
:class:`~repro.storage.supercap.Supercapacitor`,
:class:`~repro.storage.lifetime.AhThroughputLifetimeModel`) or its
lane-parallel twin in :mod:`repro.storage.batch`; both carry the
per-tick state and every constant a kernel reads as attributes of the
same names.  Two namespaces run the kernels:

* :data:`FLOAT` on Python floats, for one device;
* :data:`NUMPY` on (lanes,) arrays, for a batch of them.

A kernel returns values; the caller stores the wells or charge, records
telemetry and, for a device, builds the
:class:`~repro.storage.device.FlowResult`.  When no lane on its mask can
flow, a flow kernel returns ``s.zeros`` itself for the current, power
and loss, so a batch can skip the bookkeeping of a flow that moved
nothing.

Both backends give the same float, to the bit, for each lane.  Four
rules keep them there:

* ``xp.where`` evaluates both arms, on floats too.  So an arm that is
  valid only under its mask is guarded: the ``*_safe`` denominators,
  the masked discriminants under ``sqrt``, and ``xp.pow``, which raises
  only the masked lanes to their power.
* ``xp.pow`` is CPython ``**`` on both backends, element by element on
  the lanes that need it.  ``np.power`` takes a SIMD path whose results
  differ from CPython's ``**`` in the last ulps on this platform.
* Python's ``min``/``max`` builtins are selections, not IEEE min/max:
  ``min(a, b)`` returns ``b`` only when ``b < a``.  ``xp.sel_min`` and
  ``xp.sel_max`` are that selection on both backends.
  ``xp.minimum`` and ``xp.maximum`` are the builtins on :data:`FLOAT`
  and ``np.minimum``/``np.maximum`` on :data:`NUMPY`; the kernels use
  them only where no NaN reaches the operands.  For such operands the
  two agree on every value; the only divergence, the sign of a
  ``+0.0``/``-0.0`` tie, never feeds a sign-sensitive operation.
* Masks are negated with ``xp.logical_not``: ``~`` on a Python bool is
  integer negation.

The ``fraction_plain``, ``any_r_small``, ``esr_uniform`` and
``any_den_bad`` flags let a batch skip an elementwise select that no
lane needs; a device sets them from its own values.
"""

from __future__ import annotations

import math
import operator
from typing import Sequence

import numpy as np

#: Device-model epsilon: currents and voltages at or below it count as
#: zero.
EPSILON = 1e-12


class ArrayNamespace:
    """The operations a kernel may call, for one backend."""

    __slots__ = ("where", "minimum", "maximum", "sel_min", "sel_max",
                 "clamp", "sqrt", "any", "logical_not", "pow", "inf")

    def __init__(self, **ops) -> None:
        for name, op in ops.items():
            setattr(self, name, op)


def _where(condition, a, b):
    return a if condition else b


def _clamp(x, high):
    return 0.0 if x < 0.0 else (high if x > high else x)


def _pow(base, exponent, mask):
    return base ** exponent if mask else 0.0


def sel_min(a, b):
    """Elementwise Python ``min(a, b)``: ``b`` if ``b < a`` else ``a``."""
    return np.where(b < a, b, a)


def sel_max(a, b):
    """Elementwise Python ``max(a, b)``: ``b`` if ``b > a`` else ``a``."""
    return np.where(b > a, b, a)


def max0(x):
    """Elementwise Python ``max(0.0, x)``."""
    return np.where(x > 0.0, x, 0.0)


def _clamp_lanes(x, high):
    return np.where(x < 0.0, 0.0, np.where(x > high, high, x))


def pow_lanes(base: np.ndarray, exponents: Sequence[float],
              mask: np.ndarray) -> np.ndarray:
    """``base[i] ** exponents[i]`` via CPython pow on masked lanes.

    Lanes outside ``mask`` read 0.0 (callers select them away).  The
    loop is over ``mask``'s population count, which on the hot paths is
    the handful of lanes actually above their reference current.
    """
    out = np.zeros(base.shape[0])
    idx = np.flatnonzero(mask)
    values = base[idx].tolist()
    out[idx] = [v ** exponents[i] for i, v in zip(idx.tolist(), values)]
    return out


#: One device: Python floats and the builtins.
FLOAT = ArrayNamespace(
    where=_where, minimum=min, maximum=max, sel_min=min, sel_max=max,
    clamp=_clamp, sqrt=math.sqrt, any=bool, logical_not=operator.not_,
    pow=_pow, inf=math.inf)

#: A batch: (lanes,) arrays.
NUMPY = ArrayNamespace(
    where=np.where, minimum=np.minimum, maximum=np.maximum,
    sel_min=sel_min, sel_max=sel_max, clamp=_clamp_lanes, sqrt=np.sqrt,
    any=np.count_nonzero, logical_not=np.logical_not, pow=pow_lanes,
    inf=np.inf)


# ----------------------------------------------------------------------
# KiBaM wells
# ----------------------------------------------------------------------

def kibam_step(s, xp, co, y1, y2, i, y0=None):
    """The wells after a constant-current step, clamped to their capacity.

    The closed-form solution of Manwell & McGowan (1993).  ``co`` holds
    the step coefficients for ``(k, c, dt)``; ``s`` supplies the well
    capacities ``avail_cap`` and ``bound_cap``.  A positive ``i``
    discharges, a negative one charges.  ``i=None`` is the zero-current
    step: the current terms would subtract an exact ``±0.0``, which
    leaves every float unchanged, so they are skipped.
    """
    if y0 is None:
        y0 = y1 + y2
    k = co.k
    if i is None:
        new_y1 = y1 * co.ekt + (y0 * k * co.c) * co.one_m_ekt / k
        new_y2 = y2 * co.ekt + y0 * co.one_m_c * co.one_m_ekt
    else:
        new_y1 = (y1 * co.ekt
                  + (y0 * k * co.c - i) * co.one_m_ekt / k
                  - i * co.c * co.ramp / k)
        new_y2 = (y2 * co.ekt
                  + y0 * co.one_m_c * co.one_m_ekt
                  - i * co.one_m_c * co.ramp / k)
    return xp.clamp(new_y1, s.avail_cap), xp.clamp(new_y2, s.bound_cap)


def _den_guard(xp, co, current):
    if co.any_den_bad:
        return xp.where(co.den_bad, 0.0, current)
    return current


def kibam_max_discharge(xp, co, y1, y0):
    """Largest constant current that keeps the available well >= 0.

    Set ``y1(dt) = 0`` in the closed form and solve for the current.
    """
    numerator = co.k * y1 * co.ekt + y0 * co.k * co.c * co.one_m_ekt
    return _den_guard(xp, co, xp.maximum(0.0, numerator / co.den_safe))


def kibam_max_charge(s, xp, co, y1, y0):
    """Largest constant charging current that keeps the available well
    at or below its capacity ``s.avail_cap``.

    Charging fills the available well first, and acceptance drops as it
    saturates: the root of the battery's limited valley-energy
    absorption that the REU experiments (Figure 12d) hinge on.
    """
    numerator = (s.avail_cap - y1 * co.ekt - y0 * co.c * co.one_m_ekt) * co.k
    return _den_guard(xp, co, xp.maximum(0.0, numerator / co.den_safe))


# ----------------------------------------------------------------------
# Lead-acid battery
# ----------------------------------------------------------------------

def battery_ocv(s, xp, y1):
    """Open-circuit voltage, linear in the available well's fill level."""
    fraction = y1 / s.avail_cap
    if not s.fraction_plain:
        fraction = xp.minimum(1.0, xp.maximum(0.0, fraction))
    return s.ocv_empty + s.ocv_span * fraction


def invert_peukert(s, xp, effective, mask):
    """Terminal current whose Peukert-scaled drain equals ``effective``.

    ``effective = I^pk / I_ref^(pk-1)``, so
    ``I = (effective * I_ref^(pk-1))^(1/pk)`` above the reference current.
    """
    identity = (effective <= s.ref) | s.pk_is_one
    need = mask & xp.logical_not(identity)
    if not xp.any(need):
        return effective
    return xp.where(identity, effective,
                    xp.pow(effective * s.ref_pow, s.inv_pk, need))


def peukert_multiplier(s, xp, current, mask):
    """Extra drain factor ``(I / I_ref)^(pk - 1)`` above the reference
    current, or None when it is 1.0 on every lane."""
    identity = (current <= s.ref) | s.pk_is_one
    need = mask & xp.logical_not(identity)
    if not xp.any(need):
        return None
    return xp.where(identity, 1.0, xp.pow(current / s.ref, s.pk_m1, need))


def charge_efficiency(s, xp, soc):
    """Charge efficiency, degraded by gassing above its SoC threshold.

    Above ``gassing_threshold`` a growing share of the charging current
    electrolyses water instead of converting active material: the
    physical reason shallow near-full cycling (the small-peak BaOnly
    pattern) wastes energy.
    """
    gassing = soc > s.gassing_threshold
    if not xp.any(gassing):
        return s.eff_charge
    fraction = xp.minimum(1.0, (soc - s.gassing_threshold) / s.gassing_span)
    return xp.where(gassing,
                    s.eff_charge * (1.0 - s.gassing_penalty * fraction),
                    s.eff_charge)


def battery_discharge(s, xp, co, power_w, dt, mask):
    """Deliver up to ``power_w`` for ``dt`` seconds on the ``mask`` lanes.

    Returns ``(current, terminal_v, achieved, loss, limited, y1, y2)``:
    the terminal current and voltage, the power delivered, the energy
    dissipated inside, whether the request went unmet, and the wells
    after the step.  Current, power and loss read exactly ``0.0`` off
    the mask and on lanes that cannot flow, and those lanes rest.
    """
    y1 = s.y1
    y0 = y1 + s.y2
    v_oc = battery_ocv(s, xp, y1)
    noflow = (power_w <= 0.0) | (y0 * s.mean_v - s.floor_j <= 1e-9)
    pre_active = mask & xp.logical_not(noflow)
    if not xp.any(pre_active):
        y1, y2 = kibam_step(s, xp, co, y1, s.y2, None, y0)
        return s.zeros, v_oc, s.zeros, s.zeros, power_w > 0.0, y1, y2

    # Request current: the smaller root of I (V_oc - I R) = P, or the
    # max-power current when P is out of reach.
    discriminant = v_oc * v_oc - s.four_r * power_w
    neg = discriminant < 0.0
    if xp.any(neg):
        root = xp.sqrt(xp.where(neg, 0.0, discriminant))
        i_request = xp.where(neg, v_oc / s.two_r, (v_oc - root) / s.two_r)
    else:
        i_request = (v_oc - xp.sqrt(discriminant)) / s.two_r
    # Limit (1): the terminal voltage stays above the brown-out floor.
    i_voltage = xp.maximum(0.0, (v_oc - s.min_terminal_v) / s.r_safe)
    if s.any_r_small:
        i_request = xp.where(s.r_small, power_w / v_oc, i_request)
        i_voltage = xp.where(s.r_small, xp.inf, i_voltage)
    # Limit (2): the available well must not empty within the step
    # (Peukert-scaled drain).
    i_kibam = invert_peukert(
        s, xp, kibam_max_discharge(xp, co, y1, y0) * s.eff_discharge,
        pre_active)
    # Limit (3): the total charge stays above the DoD floor.
    i_floor = invert_peukert(
        s, xp, xp.maximum(0.0, y0 - s.floor_c) / dt * s.eff_discharge,
        pre_active)
    i_limit = xp.maximum(
        0.0, xp.minimum(xp.minimum(i_voltage, i_kibam), i_floor))

    current = xp.minimum(i_request, i_limit)
    noflow = noflow | (current <= EPSILON)
    active = mask & xp.logical_not(noflow)
    current = xp.where(active, current, 0.0)
    terminal_v = v_oc - current * s.r
    achieved = current * terminal_v
    limited = xp.where(noflow, power_w > 0.0, achieved < power_w - 1e-6)

    multiplier = peukert_multiplier(s, xp, current, active)
    if multiplier is None:
        drain = current / s.eff_discharge
    else:
        drain = current * multiplier / s.eff_discharge
    loss = (current * current * s.r * dt
            + xp.maximum(0.0, (drain - current) * terminal_v * dt))
    y1, y2 = kibam_step(s, xp, co, y1, s.y2, drain, y0)
    return current, terminal_v, achieved, loss, limited, y1, y2


def battery_charge(s, xp, co, power_w, dt, mask):
    """Absorb up to ``power_w`` for ``dt`` seconds on the ``mask`` lanes.

    Returns ``(current, terminal_v, achieved, loss, noflow, well_i, y0)``.
    The caller steps the wells by ``well_i``, the current the wells
    gain (negative), which is ``None`` when no lane flows; ``y0`` is the
    wells' total before the step.  Current, power and loss read exactly
    ``0.0`` off the mask and on ``noflow`` lanes.
    """
    y1 = s.y1
    y0 = y1 + s.y2
    v_oc = battery_ocv(s, xp, y1)
    stored = y0 * s.mean_v
    noflow = (power_w <= 0.0) | (s.nominal_j - stored <= 1e-9)
    if not xp.any(mask & xp.logical_not(noflow)):
        return s.zeros, v_oc, s.zeros, s.zeros, noflow, None, y0

    # Request current: the positive root of I (V_oc + I R) = P.
    i_request = ((-v_oc + xp.sqrt(v_oc * v_oc + s.four_r * power_w))
                 / s.two_r)
    if s.any_r_small:
        i_request = xp.where(s.r_small, power_w / v_oc, i_request)
    # The wells gain I * efficiency; the limits are on the well side.
    efficiency = charge_efficiency(
        s, xp, xp.maximum(0.0, xp.minimum(1.0, stored / s.nominal_j)))
    i_kibam = kibam_max_charge(s, xp, co, y1, y0) / efficiency
    i_headroom = xp.maximum(0.0, s.capacity_c - y0) / dt / efficiency
    i_limit = xp.maximum(
        0.0, xp.minimum(xp.minimum(s.max_charge_current, i_kibam),
                        i_headroom))

    current = xp.minimum(i_request, i_limit)
    noflow = noflow | (current <= EPSILON)
    current = xp.where(mask & xp.logical_not(noflow), current, 0.0)
    terminal_v = v_oc + current * s.r
    achieved = current * terminal_v
    stored_current = current * efficiency
    loss = (current * current * s.r * dt
            + (current - stored_current) * v_oc * dt)
    # stored_current is exactly 0.0 on no-flow lanes, so its negation is
    # a zero current up to the sign of zero, which every well term
    # absorbs.
    return current, terminal_v, achieved, loss, noflow, -stored_current, y0


# ----------------------------------------------------------------------
# Supercapacitor
# ----------------------------------------------------------------------

def sc_stored(s, xp, v):
    """Usable energy above the converter cut-off at cell voltage ``v``."""
    return xp.where(v <= s.min_v, 0.0,
                    0.5 * s.capacitance * (v * v - s.min_v_sq))


def sc_discharge(s, xp, power_w, dt, mask):
    """Deliver up to ``power_w`` for ``dt`` seconds on the ``mask`` lanes.

    Returns ``(current, terminal_v, achieved, loss, limited, charge_c)``,
    the last being the cell charge after the step.  Current, power and
    loss read exactly ``0.0`` off the mask and on lanes that cannot flow.
    """
    cap = s.capacitance
    charge = s.charge_c
    v = charge / cap
    noflow = (power_w <= 0.0) | (sc_stored(s, xp, v) - s.floor_j <= 1e-9)
    if not xp.any(mask & xp.logical_not(noflow)):
        return s.zeros, v, s.zeros, s.zeros, power_w > 0.0, charge

    # Request current: the smaller root of I (V - I ESR) = P, or the
    # max-power current when P is out of reach.
    discriminant = v * v - s.four_esr * power_w
    neg = discriminant < 0.0
    if xp.any(neg):
        root = xp.sqrt(xp.where(neg, 0.0, discriminant))
        i_request = xp.where(neg, v / s.two_esr, (v - root) / s.two_esr)
    else:
        i_request = (v - xp.sqrt(discriminant)) / s.two_esr
    if not s.esr_uniform:
        lit = v > EPSILON
        i_request = xp.where(
            s.esr_small,
            xp.where(lit, power_w / xp.where(lit, v, 1.0), 0.0), i_request)

    # Solve against the mid-step voltage, three fixed-point rounds, so
    # an unclamped request delivers the requested power instead of
    # undershooting by the droop within the step.  A lane whose
    # mid-step voltage collapses keeps its current; one whose request
    # passes the max-power point takes that current (with a real ESR).
    # Either way it is frozen for the remaining rounds.
    frozen = None
    half_dt = 0.5 * dt  # exact; (0.5*i)*dt == i*(0.5*dt) bitwise
    for _ in range(3):
        v_mid = v - i_request * half_dt / cap
        low = v_mid <= EPSILON
        frozen = low if frozen is None else frozen | low
        any_frozen = xp.any(frozen)
        discriminant = v_mid * v_mid - s.four_esr * power_w
        neg = discriminant < 0.0
        if xp.any(neg):
            hit_max = (neg if not any_frozen
                       else xp.logical_not(frozen) & neg)
            i_request = xp.where(hit_max & xp.logical_not(s.esr_small),
                                 v_mid / s.two_esr, i_request)
            frozen = frozen | hit_max
            any_frozen = True
            root = xp.sqrt(xp.where(neg, 0.0, discriminant))
        else:
            root = xp.sqrt(discriminant)
        refined = (v_mid - root) / s.two_esr
        if not s.esr_uniform:
            refined = xp.where(
                s.esr_small,
                power_w / (xp.where(frozen, 1.0, v_mid) if any_frozen
                           else v_mid),
                refined)
        i_request = (xp.where(frozen, i_request, refined) if any_frozen
                     else refined)

    i_limit = xp.maximum(0.0, charge - s.floor_charge) / dt
    current = xp.minimum(i_request, i_limit)
    noflow = noflow | (current <= EPSILON)
    current = xp.where(mask & xp.logical_not(noflow), current, 0.0)
    v_mid = 0.5 * (v + (charge - current * dt) / cap)
    terminal_v = v_mid - current * s.esr
    achieved = current * terminal_v
    limited = xp.where(noflow, power_w > 0.0,
                       achieved < power_w * (1.0 - 1e-6) - 1e-9)
    loss = current * current * s.esr * dt
    return (current, terminal_v, achieved, loss, limited,
            xp.maximum(0.0, charge - current * dt))


def sc_charge(s, xp, power_w, dt, mask):
    """Absorb up to ``power_w`` for ``dt`` seconds on the ``mask`` lanes.

    Returns ``(current, terminal_v, achieved, loss, noflow, charge_c)``,
    the last being the cell charge after the step.  Current, power and
    loss read exactly ``0.0`` off the mask and on ``noflow`` lanes.
    """
    cap = s.capacitance
    charge = s.charge_c
    v = charge / cap
    noflow = (power_w <= 0.0) | (s.nominal_j - sc_stored(s, xp, v) <= 1e-9)
    if not xp.any(mask & xp.logical_not(noflow)):
        return s.zeros, v, s.zeros, s.zeros, noflow, charge

    # Request current: the positive root of I (V + I ESR) = P, refined
    # against the mid-step voltage so the accepted power does not
    # overshoot the offer as the cell voltage rises within the step.
    i_request = (-v + xp.sqrt(v * v + s.four_esr * power_w)) / s.two_esr
    if not s.esr_uniform:
        i_request = xp.where(
            s.esr_small,
            power_w / xp.sel_max(xp.sel_max(v, s.min_v), EPSILON),
            i_request)
    half_dt = 0.5 * dt  # exact; (0.5*i)*dt == i*(0.5*dt) bitwise
    for _ in range(3):
        v_mid = v + i_request * half_dt / cap
        i_request = ((-v_mid + xp.sqrt(v_mid * v_mid
                                       + s.four_esr * power_w))
                     / s.two_esr)
        if not s.esr_uniform:
            i_request = xp.where(
                s.esr_small, power_w / xp.sel_max(v_mid, EPSILON),
                i_request)

    headroom_c = xp.maximum(0.0, s.max_charge_c - charge)
    current = xp.minimum(xp.minimum(i_request, s.max_charge_current),
                         headroom_c / dt)
    noflow = noflow | (current <= EPSILON)
    current = xp.where(mask & xp.logical_not(noflow), current, 0.0)
    v_mid = 0.5 * (v + (charge + current * dt) / cap)
    terminal_v = v_mid + current * s.esr
    achieved = current * terminal_v
    loss = current * current * s.esr * dt
    return current, terminal_v, achieved, loss, noflow, charge + current * dt


def sc_leakage(s, xp, power_w, dt, mask):
    """Self-discharge at ``power_w`` for ``dt`` seconds.

    Returns ``(active, charge_c, leaked_j)``, or None when no lane on
    the mask leaks (no drain, or an empty cell).  The caller books
    ``leaked_j`` as internal loss on the ``active`` lanes.
    """
    cap = s.capacitance
    charge = s.charge_c
    v = charge / cap
    active = mask & (power_w > 0.0) & (v > EPSILON)
    if not xp.any(active):
        return None
    drained = xp.sel_min(charge, power_w / xp.where(active, v, 1.0) * dt)
    leaked = 0.5 * (v + (charge - drained) / cap) * drained
    return active, xp.where(active, charge - drained, charge), leaked


# ----------------------------------------------------------------------
# Battery wear
# ----------------------------------------------------------------------

def wear_weight(s, xp, current, soc, mask):
    """Severity weight of charge discharged at ``(current, soc)``.

    Current stress ``(I / I_ref)^exponent`` above the reference current
    times low-SoC stress ``1 + low_soc_stress * (1 - soc)``.
    """
    soc_weight = 1.0 + s.low_soc_stress * xp.maximum(0.0, 1.0 - soc)
    stressed = (current > s.ref) & s.exponent_on
    need = mask & stressed
    if not xp.any(need):
        return soc_weight
    return xp.where(stressed,
                    xp.pow(current / s.ref, s.current_stress_exponent, need),
                    1.0) * soc_weight
