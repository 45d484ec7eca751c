"""Abstract energy-storage device protocol shared by batteries and SCs.

A device is a stateful object that exchanges power with the rest of the
system through two operations:

* :meth:`EnergyStorageDevice.discharge` — ask the device to deliver a given
  terminal power for a time step.  The device delivers as much of it as its
  physics allow (state of charge, current limits, voltage floor) and reports
  what actually happened in a :class:`FlowResult`.
* :meth:`EnergyStorageDevice.charge` — offer the device a given terminal
  power; it accepts up to its charge-rate ceiling and capacity headroom.

Both operations are *best effort and truthful*: the caller must inspect the
result rather than assume the request was met.  This mirrors the prototype,
where the hControl observes voltage/current sensors rather than assuming
its commands succeeded.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from ..errors import ConfigurationError
from ..units import clamp, coulombs_to_ah


@dataclass(frozen=True)
class FlowResult:
    """Outcome of one charge or discharge step at the device terminals.

    Attributes:
        requested_w: Power the caller asked for.
        achieved_w: Power actually exchanged at the terminals.
        energy_j: Terminal energy exchanged over the step (achieved_w * dt).
        loss_j: Energy dissipated internally during the step (IR/ESR heating
            plus conversion inefficiency).
        terminal_voltage_v: Voltage at the terminals during the step.
        limited: True when the device could not meet the request.
        current_a: Terminal current during the step (>= 0 for both
            directions; the operation type disambiguates).
    """

    requested_w: float
    achieved_w: float
    energy_j: float
    loss_j: float
    terminal_voltage_v: float
    limited: bool
    current_a: float = 0.0

    @property
    def shortfall_w(self) -> float:
        """Unmet portion of the request (always >= 0)."""
        return max(0.0, self.requested_w - self.achieved_w)


@dataclass
class DeviceTelemetry:
    """Cumulative counters a device maintains for metrics and lifetime.

    The lifetime model (Figure 12c) and the efficiency metric (Figure 12a)
    are both computed from these counters, in the same way the paper derives
    them from "detailed charging/discharging logs".
    """

    energy_in_j: float = 0.0
    energy_out_j: float = 0.0
    loss_j: float = 0.0
    charge_throughput_c: float = 0.0
    discharge_throughput_c: float = 0.0
    peak_discharge_current_a: float = 0.0
    discharge_time_s: float = 0.0
    charge_time_s: float = 0.0
    rest_time_s: float = 0.0
    unmet_requests: int = 0

    @property
    def discharge_throughput_ah(self) -> float:
        """Cumulative discharged charge in amp-hours."""
        return coulombs_to_ah(self.discharge_throughput_c)

    @property
    def round_trip_efficiency(self) -> float:
        """Observed energy-out / energy-in ratio so far.

        Meaningful only over windows that begin and end at the same state
        of charge; :mod:`repro.storage.characterization` constructs such
        windows explicitly.
        """
        if self.energy_in_j <= 0.0:
            return 1.0
        return self.energy_out_j / self.energy_in_j

    def record_discharge(self, result: FlowResult, current_a: float,
                         dt: float) -> None:
        """Fold one discharge step into the counters."""
        self.energy_out_j += result.energy_j
        self.loss_j += result.loss_j
        self.discharge_throughput_c += current_a * dt
        self.peak_discharge_current_a = max(
            self.peak_discharge_current_a, current_a)
        self.discharge_time_s += dt
        if result.limited:
            self.unmet_requests += 1

    def record_charge(self, result: FlowResult, current_a: float,
                      dt: float) -> None:
        """Fold one charge step into the counters."""
        self.energy_in_j += result.energy_j
        self.loss_j += result.loss_j
        self.charge_throughput_c += current_a * dt
        self.charge_time_s += dt

    def record_rest(self, dt: float) -> None:
        """Fold one idle step into the counters."""
        self.rest_time_s += dt


class EnergyStorageDevice(ABC):
    """Common interface for every storage technology in the library."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.telemetry = DeviceTelemetry()
        self._soc_floor = 0.0

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------

    @property
    @abstractmethod
    def nominal_energy_j(self) -> float:
        """Energy held at 100% state of charge (joules)."""

    @property
    @abstractmethod
    def stored_energy_j(self) -> float:
        """Energy currently stored (joules, >= 0)."""

    @property
    def soc(self) -> float:
        """State of charge as stored / nominal, in [0, 1]."""
        return clamp(self.stored_energy_j / self.nominal_energy_j, 0.0, 1.0)

    @property
    def soc_floor(self) -> float:
        """Controller-imposed SoC floor (1 - depth of discharge)."""
        return self._soc_floor

    def set_depth_of_discharge(self, dod: float) -> None:
        """Restrict usable capacity to the top ``dod`` fraction.

        This is the knob Section 7.5 turns to emulate different installed
        capacities: "Our controller can disable the utilization of batteries
        once it hits its DoD threshold."
        """
        if not 0.0 < dod <= 1.0:
            raise ConfigurationError(f"DoD must lie in (0, 1], got {dod!r}")
        self._soc_floor = 1.0 - dod
        self._hoist()

    @abstractmethod
    def _hoist(self) -> None:
        """Recompute the constants derived from the config, any
        degradation and the DoD floor (the flows read them per call)."""

    @property
    def usable_energy_j(self) -> float:
        """Stored energy above the DoD floor (what a policy may spend)."""
        floor_j = self._soc_floor * self.nominal_energy_j
        return max(0.0, self.stored_energy_j - floor_j)

    @property
    def headroom_j(self) -> float:
        """Energy the device could still absorb."""
        return max(0.0, self.nominal_energy_j - self.stored_energy_j)

    @property
    def is_depleted(self) -> bool:
        """True when no usable energy remains above the DoD floor."""
        return self.usable_energy_j <= 1e-9

    @property
    def is_full(self) -> bool:
        """True when the device cannot absorb more energy."""
        return self.headroom_j <= 1e-9

    # ------------------------------------------------------------------
    # Electrical interface
    # ------------------------------------------------------------------

    @abstractmethod
    def open_circuit_voltage(self) -> float:
        """Open-circuit terminal voltage at the current state."""

    @abstractmethod
    def discharge(self, power_w: float, dt: float) -> FlowResult:
        """Deliver up to ``power_w`` at the terminals for ``dt`` seconds."""

    @abstractmethod
    def charge(self, power_w: float, dt: float) -> FlowResult:
        """Absorb up to ``power_w`` at the terminals for ``dt`` seconds."""

    @abstractmethod
    def rest(self, dt: float) -> None:
        """Let the device sit idle for ``dt`` seconds (recovery happens here)."""

    @abstractmethod
    def reset(self, soc: float = 1.0) -> None:
        """Restore the device to ``soc`` and clear telemetry."""

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------

    def _validate_flow_args(self, power_w: float, dt: float) -> None:
        if power_w < 0.0:
            raise ConfigurationError(
                f"{self.name}: power must be non-negative, got {power_w!r}")
        if dt <= 0.0:
            raise ConfigurationError(
                f"{self.name}: dt must be positive, got {dt!r}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<{type(self).__name__} {self.name!r} "
                f"soc={self.soc:.3f} usable={self.usable_energy_j:.0f}J>")
