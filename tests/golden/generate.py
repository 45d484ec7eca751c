"""Regenerate the bit-exact golden corpus (``corpus.jsonl``).

The corpus is the oracle for refactors of the simulation engines: each
line is the :func:`~repro.sim.results.to_json_line` of one
:class:`~repro.sim.RunResult`, and ``tests/test_golden_corpus.py``
checks that both engines reproduce every line byte for byte.  Regenerate
it only after an *intentional* change to simulated numbers::

    PYTHONPATH=src python tests/golden/generate.py

The requests (:func:`corpus_requests`) are:

* every policy on every Table 1 workload, 0.25 h, seed 1;
* one renewable (solar-fed) PR run per policy;
* one WS run per policy with DoD caps on both pools;
* HEB-D and SCFirst under one schedule per fault class.
"""

from __future__ import annotations

from pathlib import Path
from typing import List

from repro.core import POLICY_NAMES
from repro.faults import (
    BatteryCellAging,
    BatteryOpenCircuit,
    ConverterDropout,
    FaultSchedule,
    SensorNoise,
    SupercapESRDrift,
    SupercapLeakage,
    UtilityBrownout,
    UtilityOutage,
)
from repro.runner import ExperimentSetup, RunRequest, execute_request
from repro.sim.results import to_json_line

CORPUS_PATH = Path(__file__).resolve().parent / "corpus.jsonl"

#: The Table 1 workloads, in the paper's order.
WORKLOADS = ("PR", "WC", "DA", "WS", "MS", "DFS", "HB", "TS")

SETUP = ExperimentSetup(duration_h=0.25, seed=1)

#: Capacity-planning caps on both pools (the Section 7.5 knob).
DOD_SETUP = ExperimentSetup(duration_h=0.25, seed=1,
                            battery_dod=0.5, sc_dod=0.6)

#: One schedule per fault class, keyed by the class, each inside the
#: 900 s run.  A device fault rides on an outage or brownout so that the
#: faulted pool is actually called on while the fault is active.
FAULT_SCHEDULES = {
    "brownout": FaultSchedule.of(
        UtilityBrownout(start_s=120.0, duration_s=480.0,
                        budget_fraction=0.3)),
    "outage": FaultSchedule.of(
        UtilityOutage(start_s=100.0, duration_s=800.0)),
    "battery_aging": FaultSchedule.of(
        BatteryCellAging(start_s=200.0, fade_fraction=0.4,
                         resistance_growth=2.5),
        UtilityOutage(start_s=300.0, duration_s=600.0)),
    "battery_open_circuit": FaultSchedule.of(
        UtilityOutage(start_s=100.0, duration_s=800.0),
        BatteryOpenCircuit(start_s=600.0, duration_s=200.0)),
    "sc_esr_drift": FaultSchedule.of(
        SupercapESRDrift(start_s=100.0, esr_multiplier=3.0),
        UtilityBrownout(start_s=150.0, duration_s=500.0,
                        budget_fraction=0.5)),
    "sc_leakage": FaultSchedule.of(
        SupercapLeakage(start_s=60.0, duration_s=600.0, leakage_w=40.0)),
    "converter_dropout": FaultSchedule.of(
        UtilityBrownout(start_s=200.0, duration_s=500.0,
                        budget_fraction=0.5),
        ConverterDropout(start_s=300.0, duration_s=120.0)),
    "sensor_noise": FaultSchedule.of(
        SensorNoise(start_s=0.0, duration_s=900.0, sigma_fraction=0.3),
        seed=1),
}

FAULT_SCHEMES = ("HEB-D", "SCFirst")


def corpus_requests() -> List[RunRequest]:
    """The corpus's requests, in file order."""
    requests = [RunRequest(scheme, workload, setup=SETUP)
                for scheme in POLICY_NAMES for workload in WORKLOADS]
    requests += [RunRequest(scheme, "PR", setup=SETUP, renewable=True)
                 for scheme in POLICY_NAMES]
    requests += [RunRequest(scheme, "WS", setup=DOD_SETUP)
                 for scheme in POLICY_NAMES]
    requests += [RunRequest(scheme, "PR", setup=SETUP, faults=schedule)
                 for schedule in FAULT_SCHEDULES.values()
                 for scheme in FAULT_SCHEMES]
    return requests


def main() -> None:
    lines = [to_json_line(execute_request(request))
             for request in corpus_requests()]
    CORPUS_PATH.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines)} results to {CORPUS_PATH}")


if __name__ == "__main__":
    main()
