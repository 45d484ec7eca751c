"""Energy-storage substrate: batteries, supercapacitors, lifetime.

This package implements the physical layer the paper's prototype provides
in hardware (Figure 11): the lead-acid battery pool, the supercapacitor
pool, their charge/discharge physics, and the Ah-throughput lifetime
model used for the Figure 12(c) battery-lifetime results.  Each flow is
written once, in :mod:`repro.storage.kernels`; the devices run it on
Python floats and :mod:`repro.storage.batch` on lane arrays.
"""

from .device import EnergyStorageDevice, FlowResult, DeviceTelemetry
from .kibam import (
    KiBaMCoefficients,
    KiBaMState,
    kibam_coefficients,
    kibam_step,
    kibam_max_discharge_current,
    kibam_max_charge_current,
)
from .battery import LeadAcidBattery
from .supercap import Supercapacitor
from .lifetime import AhThroughputLifetimeModel, LifetimeReport
from .characterization import (
    CharacterizationResult,
    RecoveryResult,
    constant_power_charge,
    constant_power_discharge,
    round_trip_efficiency,
    recovery_experiment,
    discharge_voltage_curve,
)

__all__ = [
    "EnergyStorageDevice",
    "FlowResult",
    "DeviceTelemetry",
    "KiBaMCoefficients",
    "KiBaMState",
    "kibam_coefficients",
    "kibam_step",
    "kibam_max_discharge_current",
    "kibam_max_charge_current",
    "LeadAcidBattery",
    "Supercapacitor",
    "AhThroughputLifetimeModel",
    "LifetimeReport",
    "CharacterizationResult",
    "RecoveryResult",
    "constant_power_charge",
    "constant_power_discharge",
    "round_trip_efficiency",
    "recovery_experiment",
    "discharge_voltage_curve",
]
