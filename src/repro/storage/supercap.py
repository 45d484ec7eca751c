"""Supercapacitor model: ideal capacitor + equivalent series resistance.

The model reproduces the SC properties Section 3.1 measures:

* **linear discharge voltage** irrespective of power demand (V = q / C);
* **90-95% round-trip efficiency** — the only loss channel is ESR heating,
  small at prototype currents;
* **fast charging without an upper-bound current** — the acceptance limit
  is the (generous) converter ceiling, not chemistry;
* **enormous cycle life** — telemetry feeds a lifetime model that will
  simply never be the bottleneck ("battery lifetime is the bottleneck of
  heterogeneous energy system lifespan", Section 7.3).

Usable energy is the window between ``min_voltage_v`` (the downstream
converter's cut-off) and ``max_voltage_v``.  The flows themselves are the
kernels of :mod:`repro.storage.kernels`, run here on Python floats.
"""

from __future__ import annotations

import math

from ..config import SupercapConfig
from ..errors import ConfigurationError
from ..units import clamp
from . import kernels
from .device import EnergyStorageDevice, FlowResult
from .kernels import EPSILON, FLOAT


class Supercapacitor(EnergyStorageDevice):
    """A supercapacitor bank exposing the common device protocol.

    The stored charge ``charge_c`` is the per-tick state; every constant
    the kernels read is an attribute too, derived by :meth:`_hoist`.
    """

    #: What a flow that moves nothing returns as current, power and loss.
    zeros = 0.0

    def __init__(self, config: SupercapConfig, name: str = "supercap",
                 soc: float = 1.0) -> None:
        super().__init__(name)
        self.config = config
        self.capacitance = config.capacitance_f
        self.esr = config.esr_ohm
        self.min_v = config.min_voltage_v
        self.min_v_sq = config.min_voltage_v ** 2
        self.max_charge_c = config.max_voltage_v * config.capacitance_f
        self.max_charge_current = config.max_charge_current_a
        self.nominal_j = config.nominal_energy_j
        self._hoist()
        self.reset(soc)

    def _hoist(self) -> None:
        """Recompute the constants that ESR drift and the DoD floor move."""
        self.esr_small = self.esr <= EPSILON
        self.esr_uniform = not self.esr_small
        self.four_esr = 4.0 * self.esr
        self.two_esr = 2.0 * (1.0 if self.esr_small else self.esr)
        self.floor_j = self._soc_floor * self.nominal_j
        # The converter cut-off raised by the DoD floor:
        # stored(v) = 0.5 C (v^2 - vmin^2)  =>  v = sqrt(2 floor/C + vmin^2)
        self.floor_charge = math.sqrt(
            2.0 * self.floor_j / self.capacitance
            + self.min_v_sq) * self.capacitance

    # ------------------------------------------------------------------
    # Degradation hooks (fault injection / aging studies)
    # ------------------------------------------------------------------

    @property
    def esr_ohm(self) -> float:
        """Present equivalent series resistance (grows with drift)."""
        return self.esr

    def apply_esr_drift(self, multiplier: float) -> None:
        """Permanently raise the ESR (electrolyte dry-out, aging).

        Higher ESR degrades deliverable power and round-trip efficiency
        — the SC analogue of battery resistance growth.  Drift composes
        multiplicatively and is irreversible.

        Args:
            multiplier: Factor to apply to the present ESR (>= 1).
        """
        if multiplier < 1.0:
            raise ConfigurationError(
                f"{self.name}: ESR can only grow, got multiplier "
                f"{multiplier!r}")
        self.esr *= multiplier
        self._hoist()

    def apply_leakage(self, power_w: float, dt: float) -> float:
        """Drain stored charge internally (self-discharge / leakage).

        The energy leaves the store as internal loss: it is recorded in
        ``telemetry.loss_j`` but never in ``energy_out_j``, so delivered-
        energy accounting and the efficiency metric see leakage as pure
        waste, exactly like ESR heating.

        Args:
            power_w: Parasitic drain at the cell (>= 0).
            dt: Step length in seconds (> 0).

        Returns:
            Energy actually drained over the step in joules.
        """
        self._validate_flow_args(power_w, dt)
        leak = kernels.sc_leakage(self, FLOAT, power_w, dt, True)
        if leak is None:
            return 0.0
        _, self.charge_c, leaked_j = leak
        self.telemetry.loss_j += leaked_j
        return leaked_j

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------

    @property
    def voltage(self) -> float:
        """Cell voltage from stored charge (V = q / C)."""
        return self.charge_c / self.capacitance

    @property
    def nominal_energy_j(self) -> float:
        return self.nominal_j

    @property
    def stored_energy_j(self) -> float:
        """Usable energy above the converter cut-off voltage."""
        return kernels.sc_stored(self, FLOAT, self.charge_c / self.capacitance)

    def open_circuit_voltage(self) -> float:
        return self.voltage

    # ------------------------------------------------------------------
    # Flows
    # ------------------------------------------------------------------

    def discharge(self, power_w: float, dt: float) -> FlowResult:
        self._validate_flow_args(power_w, dt)
        (current, terminal_v, achieved, loss, limited,
         self.charge_c) = kernels.sc_discharge(self, FLOAT, power_w, dt, True)
        result = FlowResult(power_w, achieved, achieved * dt, loss,
                            terminal_v, limited, current)
        self.telemetry.record_discharge(result, current, dt)
        return result

    def charge(self, power_w: float, dt: float) -> FlowResult:
        self._validate_flow_args(power_w, dt)
        (current, terminal_v, achieved, loss, noflow,
         self.charge_c) = kernels.sc_charge(self, FLOAT, power_w, dt, True)
        limited = (power_w > 0.0 if noflow
                   else achieved < power_w - 1e-6)
        result = FlowResult(power_w, achieved, achieved * dt, loss,
                            terminal_v, limited, current)
        self.telemetry.record_charge(result, current, dt)
        return result

    def rest(self, dt: float) -> None:
        self._validate_flow_args(0.0, dt)
        self.telemetry.record_rest(dt)

    def reset(self, soc: float = 1.0) -> None:
        cfg = self.config
        soc = clamp(soc, 0.0, 1.0)
        # Invert stored(v) = soc * nominal over the usable window.
        target_j = soc * self.nominal_energy_j
        voltage = math.sqrt(2.0 * target_j / cfg.capacitance_f
                            + cfg.min_voltage_v ** 2)
        self.charge_c = voltage * cfg.capacitance_f
        self.telemetry = type(self.telemetry)()
