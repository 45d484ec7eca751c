"""The hybrid buffer pair a simulation run operates on.

Bundles the SC pool, the battery pool, and the battery's lifetime model,
and guarantees the timing discipline the device models need: every pool
advances by exactly one operation (charge, discharge, or rest) per tick,
so KiBaM recovery happens whenever the battery is idle.
"""

from __future__ import annotations

from typing import Optional

from ..config import HybridBufferConfig
from ..errors import ConfigurationError, SimulationError
from ..storage.battery import LeadAcidBattery
from ..storage.device import EnergyStorageDevice, FlowResult
from ..storage.lifetime import AhThroughputLifetimeModel, LifetimeReport
from ..storage.supercap import Supercapacitor


class HybridBuffers:
    """SC + battery pools with equal-capacity construction.

    Args:
        config: Total capacity and SC share.  With ``include_sc=False``
            the battery pool absorbs the *entire* capacity — the paper's
            equal-total-capacity comparison against BaOnly (Section 7).
        include_sc: Whether an SC pool exists.
        battery_dod / sc_dod: Optional DoD overrides (the Section 7.5
            capacity-planning knob).
    """

    def __init__(self, config: HybridBufferConfig,
                 include_sc: bool = True,
                 battery_dod: Optional[float] = None,
                 sc_dod: Optional[float] = None) -> None:
        self.config = config
        self.include_sc = include_sc and config.sc_fraction > 0.0

        if self.include_sc:
            battery_energy = config.battery_energy_j
        else:
            battery_energy = config.total_energy_j
        if battery_energy <= 0:
            raise ConfigurationError("battery pool must hold some energy")

        battery_config = config.battery.scaled_to_energy(battery_energy)
        self.battery = LeadAcidBattery(battery_config, name="battery-pool")
        self.sc: Optional[Supercapacitor] = None
        if self.include_sc:
            self.sc = Supercapacitor(
                config.supercap.scaled_to_energy(config.sc_energy_j),
                name="sc-pool")

        if battery_dod is not None:
            self.battery.set_depth_of_discharge(battery_dod)
        if sc_dod is not None and self.sc is not None:
            self.sc.set_depth_of_discharge(sc_dod)

        self.lifetime = AhThroughputLifetimeModel(battery_config)
        self._sc_touched = False
        self._battery_touched = False
        self.initial_stored_j = self.total_stored_j

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------

    @property
    def sc_usable_j(self) -> float:
        return self.sc.usable_energy_j if self.sc is not None else 0.0

    @property
    def battery_usable_j(self) -> float:
        return self.battery.usable_energy_j

    @property
    def sc_nominal_j(self) -> float:
        return self.sc.nominal_energy_j if self.sc is not None else 0.0

    @property
    def battery_nominal_j(self) -> float:
        return self.battery.nominal_energy_j

    @property
    def total_stored_j(self) -> float:
        stored = self.battery.stored_energy_j
        if self.sc is not None:
            stored += self.sc.stored_energy_j
        return stored

    def pool(self, name: str) -> Optional[EnergyStorageDevice]:
        """Access a pool by its plan name ("sc" or "battery")."""
        if name == "sc":
            return self.sc
        if name == "battery":
            return self.battery
        raise SimulationError(f"unknown pool {name!r}")

    # ------------------------------------------------------------------
    # Tick protocol
    # ------------------------------------------------------------------

    def begin_tick(self) -> None:
        """Mark the start of a tick (clears per-tick operation flags)."""
        self._sc_touched = False
        self._battery_touched = False

    def discharge(self, name: str, power_w: float, dt: float) -> FlowResult:
        """Discharge one pool; battery discharges feed the lifetime model."""
        if name == "battery":
            self._battery_touched = True
            result = self.battery.discharge(power_w, dt)
            self.lifetime.observe_flow(result, dt, self.battery.soc)
            return result
        device = self.pool(name)
        if device is None:
            raise SimulationError(f"scheme has no {name!r} pool")
        self._sc_touched = True
        return device.discharge(power_w, dt)

    def charge(self, name: str, power_w: float, dt: float) -> FlowResult:
        """Charge one pool."""
        if name == "battery":
            self._battery_touched = True
            result = self.battery.charge(power_w, dt)
            self.lifetime.observe_idle(dt)
            return result
        device = self.pool(name)
        if device is None:
            raise SimulationError(f"scheme has no {name!r} pool")
        self._sc_touched = True
        return device.charge(power_w, dt)

    def settle(self, dt: float) -> None:
        """Rest every pool not operated this tick (recovery happens here)."""
        if not self._battery_touched:
            self.battery.rest(dt)
            self.lifetime.observe_idle(dt)
        if self.sc is not None and not self._sc_touched:
            self.sc.rest(dt)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def lifetime_report(self) -> LifetimeReport:
        return self.lifetime.report()

    def energy_in_j(self) -> float:
        """Terminal energy charged into both pools so far."""
        total = self.battery.telemetry.energy_in_j
        if self.sc is not None:
            total += self.sc.telemetry.energy_in_j
        return total

    def energy_out_j(self) -> float:
        """Terminal energy discharged from both pools so far."""
        total = self.battery.telemetry.energy_out_j
        if self.sc is not None:
            total += self.sc.telemetry.energy_out_j
        return total

    def reset(self) -> None:
        """Refill both pools and clear telemetry and wear."""
        self.battery.reset(1.0)
        if self.sc is not None:
            self.sc.reset(1.0)
        self.lifetime.reset()
        self.initial_stored_j = self.total_stored_j
