"""Fault injection and resilience: deterministic chaos for the simulator.

The paper's headline claims (99.9% less downtime, 58% longer battery
lifetime) only matter if the controller stays safe when the world
misbehaves.  This package models the misbehavior: a seedable, frozen
:class:`FaultSchedule` of typed events — utility brownouts and outages,
battery aging and open-circuit, supercapacitor ESR drift and leakage,
converter dropout, sensor noise — consumed by the engine through a
:class:`FaultInjector`.

Schedules are pure data riding inside a
:class:`~repro.runner.RunRequest`, so fault scenarios are content-
addressed, cacheable, and parallelizable like any other run, and an
empty schedule is bit-identical to no schedule at all.

See ``docs/resilience.md`` for the fault taxonomy, the JSON spec format,
the graceful-degradation semantics, and the invariants the chaos test
suite enforces.
"""

from .events import (
    BASELINE_CLASS,
    EVENT_REGISTRY,
    EVENT_TYPES,
    FAULT_CLASSES,
    BatteryCellAging,
    BatteryOpenCircuit,
    ConverterDropout,
    FaultEvent,
    SensorNoise,
    SupercapESRDrift,
    SupercapLeakage,
    UtilityBrownout,
    UtilityOutage,
    WindowedFault,
    event_from_dict,
)
from .injector import FaultInjector, FaultState, fault_state_at
from .schedule import (
    FaultSchedule,
    dump_schedule,
    load_schedule,
    schedule_from_dict,
)

__all__ = [
    "BASELINE_CLASS",
    "EVENT_REGISTRY",
    "EVENT_TYPES",
    "FAULT_CLASSES",
    "FaultEvent",
    "WindowedFault",
    "UtilityBrownout",
    "UtilityOutage",
    "BatteryCellAging",
    "BatteryOpenCircuit",
    "SupercapESRDrift",
    "SupercapLeakage",
    "ConverterDropout",
    "SensorNoise",
    "event_from_dict",
    "FaultInjector",
    "FaultState",
    "fault_state_at",
    "FaultSchedule",
    "schedule_from_dict",
    "load_schedule",
    "dump_schedule",
]
