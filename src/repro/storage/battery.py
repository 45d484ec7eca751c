"""Lead-acid battery model: KiBaM wells + Peukert drain + voltage physics.

The model reproduces the four battery weaknesses the paper's Section 1 and
3.1 enumerate, each traceable to a specific mechanism here:

1. *Limited cycle life* — telemetry feeds the Ah-throughput lifetime model
   (:mod:`repro.storage.lifetime`).
2. *Peukert's-law capacity loss at high current* — the well drain is scaled
   by ``(I / I_ref)^(pk - 1)`` on top of KiBaM's own rate-capacity effect.
3. *Charge-current ceiling* — ``max_charge_current_a`` plus the available
   well's saturation limit how fast valleys can be absorbed.
4. *Poor round-trip efficiency (~80%)* — coulombic losses on both legs plus
   real IR heating at the terminals.

The flows themselves are the kernels of :mod:`repro.storage.kernels`,
run here on Python floats; the battery holds their state and constants.
"""

from __future__ import annotations

from ..config import BatteryConfig
from ..errors import ConfigurationError
from ..units import ah_to_coulombs, clamp
from . import kernels
from .device import EnergyStorageDevice, FlowResult
from .kernels import EPSILON, FLOAT
from .kibam import KiBaMCoefficients, KiBaMState, kibam_coefficients


class LeadAcidBattery(EnergyStorageDevice):
    """A lead-acid battery string exposing the common device protocol.

    The wells ``y1`` (available) and ``y2`` (bound) are the per-tick
    state; every constant the kernels read is an attribute too, derived
    from the config, the aging and the DoD floor by :meth:`_hoist`.
    """

    #: The unclamped OCV fraction is a batch shortcut; one device clamps.
    fraction_plain = False
    #: What a flow that moves nothing returns as current, power and loss.
    zeros = 0.0

    def __init__(self, config: BatteryConfig, name: str = "battery",
                 soc: float = 1.0) -> None:
        super().__init__(name)
        self.config = config
        self._age_fraction = 0.0
        self._resistance_growth = 1.0
        # Single-slot memo: the engine steps with one fixed dt, and k and
        # c never change, even under aging (only capacity fades).
        self._step_coeffs: "KiBaMCoefficients | None" = None
        self.mean_v = 0.5 * (config.nominal_voltage_v
                             + config.empty_voltage_v)
        self.ocv_empty = config.empty_voltage_v
        self.ocv_span = config.nominal_voltage_v - config.empty_voltage_v
        self.min_terminal_v = config.min_terminal_voltage_v
        self.eff_discharge = config.discharge_efficiency
        self.eff_charge = config.charge_efficiency
        self.gassing_threshold = config.gassing_soc_threshold
        self.gassing_span = 1.0 - config.gassing_soc_threshold
        self.gassing_penalty = config.gassing_penalty
        self.max_charge_current = config.max_charge_current_a
        self.ref = config.reference_current_a
        pk = config.peukert_exponent
        self.pk_is_one = pk == 1.0
        self.ref_pow = config.reference_current_a ** (pk - 1.0)
        self.inv_pk = 1.0 / pk
        self.pk_m1 = pk - 1.0
        self.set_depth_of_discharge(config.rated_dod)
        self._fill(soc)

    def _hoist(self) -> None:
        """Recompute the constants that aging and the DoD floor move."""
        cfg = self.config
        fade = self._age_fraction
        self.capacity_c = ah_to_coulombs(cfg.capacity_ah) * (1.0 - fade)
        self.nominal_j = cfg.nominal_energy_j * (1.0 - fade)
        self.r = (cfg.internal_resistance_ohm
                  * (1.0 + (self._resistance_growth - 1.0) * fade))
        self.avail_cap = self.capacity_c * cfg.kibam_c
        self.bound_cap = self.capacity_c * (1.0 - cfg.kibam_c)
        self.floor_j = self._soc_floor * self.nominal_j
        self.floor_c = self._soc_floor * self.capacity_c
        self.r_small = self.any_r_small = self.r <= EPSILON
        self.r_safe = 1.0 if self.r_small else self.r
        self.four_r = 4.0 * self.r
        self.two_r = 2.0 * self.r_safe

    def _fill(self, soc: float) -> None:
        """Set equilibrium wells holding ``soc`` of the present capacity."""
        state = KiBaMState.at_soc(capacity_c=self.capacity_c,
                                  c=self.config.kibam_c,
                                  k=self.config.kibam_k_per_s, soc=soc)
        self.y1 = state.available_c
        self.y2 = state.bound_c

    # ------------------------------------------------------------------
    # Aging
    # ------------------------------------------------------------------

    @property
    def age_fraction(self) -> float:
        """Capacity fade applied so far (0 = fresh, 0.2 = 20% faded)."""
        return self._age_fraction

    def apply_aging(self, fade_fraction: float,
                    resistance_growth: float = 1.0) -> None:
        """Age the battery: shrink capacity and raise internal resistance.

        Section 5.3's motivation for online PAT optimization: "with the
        battery and SC aging, their ability of handling power mismatching
        will decline", so a table profiled on fresh hardware drifts out of
        date.  Lead-acid aging manifests as capacity fade (sulfation eats
        active material) plus rising internal resistance; by convention a
        battery is "dead" at ~20% fade.

        Args:
            fade_fraction: Total capacity fraction lost relative to the
                *fresh* battery (monotone; calling with a smaller value
                than the current age is rejected).
            resistance_growth: Multiplier on internal resistance per unit
                of fade (applied proportionally).
        """
        if not 0.0 <= fade_fraction < 1.0:
            raise ConfigurationError(
                f"fade fraction must lie in [0, 1), got {fade_fraction!r}")
        if fade_fraction < self._age_fraction:
            raise ConfigurationError("aging cannot be reversed")
        if resistance_growth < 1.0:
            raise ConfigurationError("resistance can only grow with age")
        soc = self.state.soc
        self._age_fraction = fade_fraction
        self._resistance_growth = resistance_growth
        self._hoist()
        self._fill(soc)

    @property
    def internal_resistance_ohm(self) -> float:
        """Present internal resistance (grows with age)."""
        return self.r

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------

    @property
    def state(self) -> KiBaMState:
        """A snapshot of the two-well charge distribution."""
        return KiBaMState(available_c=self.y1, bound_c=self.y2,
                          capacity_c=self.capacity_c, c=self.config.kibam_c,
                          k=self.config.kibam_k_per_s)

    @property
    def nominal_energy_j(self) -> float:
        return self.nominal_j

    @property
    def stored_energy_j(self) -> float:
        """Stored energy estimated from total charge at the mean voltage."""
        return (self.y1 + self.y2) * self.mean_v

    def open_circuit_voltage(self) -> float:
        """OCV tracks the *available* well, giving transient sag and
        post-rest recovery bounce (Figure 5 behaviour)."""
        return kernels.battery_ocv(self, FLOAT, self.y1)

    def _coeffs(self, dt: float) -> KiBaMCoefficients:
        """Memoized KiBaM step coefficients for this battery at ``dt``."""
        cached = self._step_coeffs
        if cached is None or cached.dt != dt:
            cached = self._step_coeffs = kibam_coefficients(
                self.config.kibam_k_per_s, self.config.kibam_c, dt)
        return cached

    # ------------------------------------------------------------------
    # Flows
    # ------------------------------------------------------------------

    def discharge(self, power_w: float, dt: float) -> FlowResult:
        self._validate_flow_args(power_w, dt)
        (current, terminal_v, achieved, loss, limited,
         self.y1, self.y2) = kernels.battery_discharge(
            self, FLOAT, self._coeffs(dt), power_w, dt, True)
        result = FlowResult(power_w, achieved, achieved * dt, loss,
                            terminal_v, limited, current)
        self.telemetry.record_discharge(result, current, dt)
        return result

    def charge(self, power_w: float, dt: float) -> FlowResult:
        self._validate_flow_args(power_w, dt)
        co = self._coeffs(dt)
        (current, terminal_v, achieved, loss, noflow, well_i,
         y0) = kernels.battery_charge(self, FLOAT, co, power_w, dt, True)
        self.y1, self.y2 = kernels.kibam_step(self, FLOAT, co, self.y1,
                                              self.y2, well_i, y0)
        limited = (power_w > 0.0 if noflow
                   else achieved < power_w - 1e-6)
        result = FlowResult(power_w, achieved, achieved * dt, loss,
                            terminal_v, limited, current)
        self.telemetry.record_charge(result, current, dt)
        return result

    def rest(self, dt: float) -> None:
        self._validate_flow_args(0.0, dt)
        self.y1, self.y2 = kernels.kibam_step(
            self, FLOAT, self._coeffs(dt), self.y1, self.y2, None)
        self.telemetry.record_rest(dt)

    def reset(self, soc: float = 1.0) -> None:
        """Restore state of charge and clear telemetry (aging persists)."""
        self._fill(clamp(soc, 0.0, 1.0))
        self.telemetry = type(self.telemetry)()
