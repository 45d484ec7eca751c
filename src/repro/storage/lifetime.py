"""Ah-throughput battery lifetime model (Bindner et al., Risø, 2005).

This is the model the paper cites as [49] and uses to "present the
anticipated battery lifetime based on detailed battery usage logs"
(Section 7.3).  The core idea: a battery dies after a fixed total amount of
charge has passed through it, where charge discharged under *stressful*
conditions (high current relative to the rating, or at low state of
charge) counts for more than its face value.

Total life throughput::

    gamma_ah = rated_cycles * rated_dod * capacity_ah

Each observed discharge step contributes ``current * dt * weight`` of
effective throughput, where the weight grows with current stress and
low-SoC stress.  The estimated calendar lifetime is then the observation
window scaled by the inverse of the life fraction consumed.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import BatteryConfig
from ..errors import ConfigurationError
from ..units import SECONDS_PER_YEAR, coulombs_to_ah
from . import kernels
from .device import FlowResult
from .kernels import FLOAT


@dataclass(frozen=True)
class LifetimeReport:
    """Summary of battery wear over an observation window.

    Attributes:
        effective_throughput_ah: Severity-weighted discharged charge.
        raw_throughput_ah: Unweighted discharged charge.
        life_consumed_fraction: Share of total life throughput consumed.
        equivalent_full_cycles: Effective throughput expressed in full
            rated-DoD cycles.
        estimated_lifetime_years: Calendar lifetime if the observed usage
            pattern continued indefinitely (inf when unused).
        observation_seconds: Length of the observation window.
    """

    effective_throughput_ah: float
    raw_throughput_ah: float
    life_consumed_fraction: float
    equivalent_full_cycles: float
    estimated_lifetime_years: float
    observation_seconds: float


class AhThroughputLifetimeModel:
    """Accumulates severity-weighted Ah throughput for one battery.

    Args:
        config: The battery whose life is being tracked.
        current_stress_exponent: Exponent on (I / I_ref) above the rating
            current; 0 disables current weighting.  The default (0.6) is a
            calibration choice: combined with the throughput reduction from
            offloading to SCs it reproduces the paper's ~4.7x lifetime gap
            between HEB-D and BaOnly (Figure 12c).
        low_soc_stress: Additional weight multiplier applied linearly as SoC
            approaches zero (discharging a nearly empty lead-acid battery is
            disproportionately damaging).
    """

    def __init__(self, config: BatteryConfig,
                 current_stress_exponent: float | None = None,
                 low_soc_stress: float = 1.0) -> None:
        if low_soc_stress < 0.0:
            raise ConfigurationError("low_soc_stress must be >= 0")
        self.config = config
        if current_stress_exponent is None:
            current_stress_exponent = 0.6
        if current_stress_exponent < 0.0:
            raise ConfigurationError("current_stress_exponent must be >= 0")
        self.current_stress_exponent = current_stress_exponent
        self.low_soc_stress = low_soc_stress
        # Constants the wear kernel reads.
        self.ref = config.reference_current_a
        self.exponent_on = bool(current_stress_exponent)
        self._effective_throughput_c = 0.0
        self._raw_throughput_c = 0.0
        self._observation_s = 0.0

    @property
    def total_life_throughput_ah(self) -> float:
        """Gamma: rated_cycles * rated_dod * capacity (amp-hours)."""
        cfg = self.config
        return cfg.rated_cycles * cfg.rated_dod * cfg.capacity_ah

    def weight(self, current_a: float, soc: float) -> float:
        """Severity weight for charge discharged at (current, soc)."""
        return kernels.wear_weight(self, FLOAT, current_a, soc, True)

    def observe_discharge(self, current_a: float, dt: float,
                          soc: float) -> None:
        """Fold one discharge step into the wear counters."""
        if current_a < 0.0 or dt <= 0.0:
            raise ConfigurationError(
                "observe_discharge needs current >= 0 and dt > 0")
        charge_c = current_a * dt
        self._raw_throughput_c += charge_c
        self._effective_throughput_c += charge_c * self.weight(current_a, soc)
        self._observation_s += dt

    def observe_flow(self, result: FlowResult, dt: float, soc: float) -> None:
        """Convenience wrapper taking a discharge :class:`FlowResult`."""
        self.observe_discharge(result.current_a, dt, soc)

    def observe_idle(self, dt: float) -> None:
        """Extend the observation window without wear (rest or charging)."""
        if dt <= 0.0:
            raise ConfigurationError("dt must be positive")
        self._observation_s += dt

    @property
    def life_consumed_fraction(self) -> float:
        """Fraction of total life throughput consumed so far."""
        return (coulombs_to_ah(self._effective_throughput_c)
                / self.total_life_throughput_ah)

    def report(self) -> LifetimeReport:
        """Snapshot the current wear state."""
        effective_ah = coulombs_to_ah(self._effective_throughput_c)
        raw_ah = coulombs_to_ah(self._raw_throughput_c)
        consumed = self.life_consumed_fraction
        cycle_ah = self.config.rated_dod * self.config.capacity_ah
        if consumed > 0.0 and self._observation_s > 0.0:
            lifetime_s = self._observation_s / consumed
            lifetime_years = lifetime_s / SECONDS_PER_YEAR
        else:
            lifetime_years = float("inf")
        return LifetimeReport(
            effective_throughput_ah=effective_ah,
            raw_throughput_ah=raw_ah,
            life_consumed_fraction=consumed,
            equivalent_full_cycles=effective_ah / cycle_ah,
            estimated_lifetime_years=lifetime_years,
            observation_seconds=self._observation_s,
        )

    def reset(self) -> None:
        """Clear all wear counters."""
        self._effective_throughput_c = 0.0
        self._raw_throughput_c = 0.0
        self._observation_s = 0.0
