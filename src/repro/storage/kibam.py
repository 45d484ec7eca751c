"""Kinetic Battery Model (KiBaM) core.

KiBaM (Manwell & McGowan) models a battery as two charge wells:

* an *available* well of fraction ``c`` that feeds the terminals directly;
* a *bound* well holding the remaining ``1 - c`` that replenishes the
  available well at a rate proportional to the head difference, with rate
  constant ``k``.

This single abstraction produces both lead-acid phenomena the paper's
Section 3.1 characterizes and exploits:

* the **rate-capacity (Peukert-like) effect** — at high currents the
  available well drains before the bound charge can migrate, so less total
  charge is extractable;
* the **recovery effect** — during rest, bound charge migrates back into
  the available well, so "lost" energy reappears ("during periods of no or
  very low discharge, they can recover the energy 'lost' to a certain
  extent").

The constant-current step has a closed-form solution, so the simulator can
take arbitrarily long steps without integration error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..errors import ConfigurationError
from . import kernels
from .kernels import FLOAT


@dataclass
class KiBaMState:
    """Charge distribution between the two wells (coulombs).

    Attributes:
        available_c: Charge in the directly extractable well (y1).
        bound_c: Charge in the chemically bound well (y2).
        capacity_c: Total well capacity (y1max + y2max).
        c: Available-well fraction of capacity.
        k: Inter-well rate constant (1/s), in the *modified* convention
            where the closed-form below applies directly.
    """

    available_c: float
    bound_c: float
    capacity_c: float
    c: float
    k: float

    def __post_init__(self) -> None:
        if not 0.0 < self.c < 1.0:
            raise ConfigurationError(f"KiBaM c must lie in (0,1): {self.c!r}")
        if self.k <= 0.0:
            raise ConfigurationError(f"KiBaM k must be positive: {self.k!r}")
        if self.capacity_c <= 0.0:
            raise ConfigurationError(
                f"KiBaM capacity must be positive: {self.capacity_c!r}")

    @classmethod
    def at_soc(cls, capacity_c: float, c: float, k: float,
               soc: float) -> "KiBaMState":
        """Build an equilibrium state holding ``soc`` of total capacity."""
        if not 0.0 <= soc <= 1.0:
            raise ConfigurationError(f"soc must lie in [0,1]: {soc!r}")
        total = capacity_c * soc
        return cls(available_c=total * c, bound_c=total * (1.0 - c),
                   capacity_c=capacity_c, c=c, k=k)

    @property
    def total_c(self) -> float:
        """Total stored charge across both wells."""
        return self.available_c + self.bound_c

    @property
    def soc(self) -> float:
        """Total state of charge in [0, 1]."""
        return min(1.0, max(0.0, self.total_c / self.capacity_c))

    @property
    def avail_cap(self) -> float:
        """Capacity of the available well."""
        return self.capacity_c * self.c

    @property
    def bound_cap(self) -> float:
        """Capacity of the bound well."""
        return self.capacity_c * (1.0 - self.c)

    @property
    def available_fraction(self) -> float:
        """Fill level of the available well relative to its own capacity.

        This, not the total SoC, drives the transient open-circuit voltage:
        a heavily loaded battery's available well empties first, producing
        the sharp voltage drop of Figure 5 and the bounce-back after rest.
        """
        return min(1.0, max(0.0, self.available_c / self.avail_cap))


@dataclass(frozen=True)
class KiBaMCoefficients:
    """The step terms that depend only on ``(k, c, dt)``, not on state.

    Every closed-form expression reuses ``exp(-k dt)`` and a few derived
    terms; with a fixed simulation tick these are loop invariants, so
    they are computed once per parameter triple and memoized.  The
    kernels of :mod:`repro.storage.kernels` read these names, here for
    one battery and stacked into lanes for a batch.
    """

    k: float
    c: float
    dt: float
    ekt: float
    one_m_ekt: float
    one_m_c: float
    #: ``k*dt - (1 - exp(-k dt))`` — the ramp term of the closed form.
    ramp: float
    #: The max-current denominator ``one_m_ekt + c * ramp``, or 1.0
    #: where it is not positive (``den_bad``; the current is then 0).
    den_safe: float
    den_bad: bool

    @property
    def any_den_bad(self) -> bool:
        """Whether the ``den_bad`` guard is needed (for lane-stacked
        coefficients: on any lane)."""
        return self.den_bad


_COEFFICIENT_CACHE: Dict[Tuple[float, float, float], KiBaMCoefficients] = {}


def kibam_coefficients(k: float, c: float, dt: float) -> KiBaMCoefficients:
    """Memoized step coefficients for one ``(k, c, dt)`` triple."""
    key = (k, c, dt)
    cached = _COEFFICIENT_CACHE.get(key)
    if cached is None:
        if dt <= 0.0:
            raise ConfigurationError(f"dt must be positive, got {dt!r}")
        ekt = math.exp(-k * dt)
        one_m_ekt = 1.0 - ekt
        ramp = k * dt - one_m_ekt
        denominator = one_m_ekt + c * ramp
        den_bad = denominator <= 0.0
        cached = KiBaMCoefficients(
            k=k, c=c, dt=dt, ekt=ekt, one_m_ekt=one_m_ekt, one_m_c=1.0 - c,
            ramp=ramp, den_safe=1.0 if den_bad else denominator,
            den_bad=den_bad)
        _COEFFICIENT_CACHE[key] = cached  # repro: noqa[RPR702] pure memo keyed by (k, c, dt); per-worker copies recompute identical values, so divergence is unobservable
    return cached


def kibam_step(state: KiBaMState, current_a: float, dt: float,
               coeffs: Optional[KiBaMCoefficients] = None) -> KiBaMState:
    """Advance the two wells by ``dt`` seconds at constant current.

    Args:
        state: Current well distribution.
        current_a: Terminal current; positive discharges, negative charges,
            zero rests (recovery only).
        dt: Step duration in seconds (> 0).
        coeffs: Optional precomputed :func:`kibam_coefficients` for the
            state's ``(k, c, dt)``; looked up (memoized) when omitted.

    Returns:
        The new state.  Well contents are clamped to [0, well capacity]
        after the analytic update so numerical dust never leaks out.
    """
    if coeffs is None:
        coeffs = kibam_coefficients(state.k, state.c, dt)
    y1, y2 = kernels.kibam_step(state, FLOAT, coeffs, state.available_c,
                                state.bound_c, current_a)
    return KiBaMState(available_c=y1, bound_c=y2,
                      capacity_c=state.capacity_c, c=state.c, k=state.k)


def kibam_max_discharge_current(state: KiBaMState, dt: float,
                                coeffs: Optional[KiBaMCoefficients] = None,
                                ) -> float:
    """Largest constant current that keeps the available well >= 0 over dt."""
    if coeffs is None:
        coeffs = kibam_coefficients(state.k, state.c, dt)
    return kernels.kibam_max_discharge(FLOAT, coeffs, state.available_c,
                                       state.total_c)


def kibam_max_charge_current(state: KiBaMState, dt: float,
                             coeffs: Optional[KiBaMCoefficients] = None,
                             ) -> float:
    """Largest constant charging current that keeps the available well
    at or below its capacity over ``dt`` seconds."""
    if coeffs is None:
        coeffs = kibam_coefficients(state.k, state.c, dt)
    return kernels.kibam_max_charge(state, FLOAT, coeffs, state.available_c,
                                    state.total_c)
