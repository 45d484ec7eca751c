"""Regenerate the device-level golden trace (``device_trace.txt``).

The golden corpus pins whole runs, but no run reaches some device
branches: a zero-resistance battery, a Peukert-free battery, a
zero-ESR or nearly empty supercapacitor.  This trace pins them.  It
replays fixed call sequences on one device per edge case and records
every :class:`~repro.storage.FlowResult` field, the device state after
each call and the final telemetry, all as ``float.hex()``, so
``tests/storage/test_device_trace.py`` compares them bit for bit.
Regenerate only after an intentional change to device physics::

    PYTHONPATH=src python tests/golden/device_trace.py
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Callable, Iterator, List, Tuple

from repro.config import prototype_battery, prototype_supercap
from repro.storage import FlowResult, LeadAcidBattery, Supercapacitor

TRACE_PATH = Path(__file__).resolve().parent / "device_trace.txt"

#: Step lengths each device is driven at, in order.
STEPS_S = (0.5, 1.0, 10.0)

BATTERY_DISCHARGE_W = (30.0, 300.0, 2000.0)
BATTERY_CHARGE_W = (5.0, 40.0, 400.0)
SC_DISCHARGE_W = (50.0, 500.0, 3000.0)
SC_CHARGE_W = (20.0, 400.0, 5000.0)

FLOW_FIELDS = ("requested_w", "achieved_w", "energy_j", "loss_j",
               "terminal_voltage_v", "current_a")


def _battery_dod() -> LeadAcidBattery:
    battery = LeadAcidBattery(prototype_battery())
    battery.set_depth_of_discharge(0.5)
    return battery


def _battery_aged() -> LeadAcidBattery:
    battery = LeadAcidBattery(prototype_battery())
    battery.apply_aging(0.3, 2.0)
    return battery


def _sc_drifted() -> Supercapacitor:
    sc = Supercapacitor(prototype_supercap())
    sc.apply_esr_drift(3.0)
    return sc


def _sc_dod() -> Supercapacitor:
    sc = Supercapacitor(prototype_supercap())
    sc.set_depth_of_discharge(0.4)
    return sc


BATTERIES: Tuple[Tuple[str, Callable[[], LeadAcidBattery]], ...] = (
    ("battery/default", lambda: LeadAcidBattery(prototype_battery())),
    ("battery/r0", lambda: LeadAcidBattery(dataclasses.replace(
        prototype_battery(), internal_resistance_ohm=0.0))),
    ("battery/peukert1-soc0.6", lambda: LeadAcidBattery(dataclasses.replace(
        prototype_battery(), peukert_exponent=1.0), soc=0.6)),
    ("battery/aged", _battery_aged),
    ("battery/dod0.5", _battery_dod),
)

SUPERCAPS: Tuple[Tuple[str, Callable[[], Supercapacitor]], ...] = (
    ("sc/default", lambda: Supercapacitor(prototype_supercap())),
    ("sc/esr0-soc0.5", lambda: Supercapacitor(dataclasses.replace(
        prototype_supercap(), esr_ohm=0.0), soc=0.5)),
    ("sc/soc0.02", lambda: Supercapacitor(prototype_supercap(), soc=0.02)),
    ("sc/esr-drift3", _sc_drifted),
    ("sc/dod0.4", _sc_dod),
)


def _hex(value: float) -> str:
    return float(value).hex()


def _flow(result: FlowResult) -> str:
    fields = " ".join(f"{name}={_hex(getattr(result, name))}"
                      for name in FLOW_FIELDS)
    return f"{fields} limited={result.limited}"


def _battery_state(battery: LeadAcidBattery) -> str:
    state = battery.state
    return f"y1={_hex(state.available_c)} y2={_hex(state.bound_c)}"


def _sc_state(sc: Supercapacitor) -> str:
    return f"v={_hex(sc.voltage)}"


def _telemetry(name: str, device) -> str:
    counters = dataclasses.asdict(device.telemetry)
    body = " ".join(f"{key}={_hex(value) if isinstance(value, float) else value}"
                    for key, value in sorted(counters.items()))
    return f"{name} telemetry {body}"


def _battery_lines(name: str, battery: LeadAcidBattery) -> Iterator[str]:
    for dt in STEPS_S:
        for power in BATTERY_DISCHARGE_W:
            result = battery.discharge(power, dt)
            yield (f"{name} discharge {power} dt={dt} {_flow(result)} "
                   f"{_battery_state(battery)}")
        for power in BATTERY_CHARGE_W:
            result = battery.charge(power, dt)
            yield (f"{name} charge {power} dt={dt} {_flow(result)} "
                   f"{_battery_state(battery)}")
        battery.rest(600.0)
        yield f"{name} rest 600.0 {_battery_state(battery)}"
    yield _telemetry(name, battery)


def _sc_lines(name: str, sc: Supercapacitor) -> Iterator[str]:
    for dt in STEPS_S:
        for power in SC_DISCHARGE_W:
            result = sc.discharge(power, dt)
            yield (f"{name} discharge {power} dt={dt} {_flow(result)} "
                   f"{_sc_state(sc)}")
        for power in SC_CHARGE_W:
            result = sc.charge(power, dt)
            yield (f"{name} charge {power} dt={dt} {_flow(result)} "
                   f"{_sc_state(sc)}")
        sc.rest(600.0)
        leaked = sc.apply_leakage(15.0, 60.0)
        yield f"{name} leakage 15.0 dt=60.0 leaked={_hex(leaked)} {_sc_state(sc)}"
    yield _telemetry(name, sc)


def trace_lines() -> List[str]:
    """Replay every call sequence; one line per call."""
    lines: List[str] = []
    for name, build in BATTERIES:
        lines.extend(_battery_lines(name, build()))
    for name, build in SUPERCAPS:
        lines.extend(_sc_lines(name, build()))
    return lines


def main() -> None:
    lines = trace_lines()
    TRACE_PATH.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines)} lines to {TRACE_PATH}")


if __name__ == "__main__":
    main()
