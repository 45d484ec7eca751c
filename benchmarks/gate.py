"""Shared plumbing for the throughput benchmarks and their gates.

Four benchmark families (``engine``, ``batch``, ``faulted``,
``service``) share one result file and one regression-gate policy:

* each measurement is merged as a named section into
  ``benchmarks/BENCH_engine.json``;
* each section carries a commit-agnostic ``config_hash`` fingerprinting
  everything the number depends on, so editing a benchmark invalidates
  its baseline loudly instead of silently comparing different workloads;
* the gate fails when a throughput (or speedup) metric drops below
  :data:`GATE_FRACTION` of the matching section in
  ``benchmarks/BENCH_baseline.json`` (``REPRO_BENCH_SKIP_GATE=1``
  measures without enforcing, e.g. on a loaded machine).
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from repro.runner.request import ExperimentSetup

BENCH_DIR = Path(__file__).resolve().parent
RESULT_PATH = BENCH_DIR / "BENCH_engine.json"
BASELINE_PATH = BENCH_DIR / "BENCH_baseline.json"

#: Sections the result file keeps; anything else is dropped on write.
SECTIONS = ("engine", "batch", "faulted", "service")

#: Fail when throughput drops below this fraction of the recorded baseline.
GATE_FRACTION = 0.7


def write_section(section: str, measurement: dict) -> None:
    """Merge one measurement section into the result file."""
    results = {}
    if RESULT_PATH.exists():
        try:
            loaded = json.loads(RESULT_PATH.read_text())
        except ValueError:
            loaded = {}
        if isinstance(loaded, dict):
            results = {key: loaded[key] for key in SECTIONS
                       if key in loaded}
    results[section] = measurement
    RESULT_PATH.write_text(json.dumps(results, indent=2) + "\n")


def baseline_section(section: str) -> dict | None:
    if not BASELINE_PATH.exists():
        return None
    baseline = json.loads(BASELINE_PATH.read_text())
    return baseline.get(section)


def digest(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def sizing_payload(setup: ExperimentSetup) -> dict:
    """The cluster/buffer sizing a measurement's cost depends on."""
    cluster = setup.cluster()
    hybrid = setup.hybrid()
    return {
        "num_servers": cluster.num_servers,
        "utility_budget_w": cluster.utility_budget_w,
        "server_peak_w": cluster.server.peak_power_w,
        "server_idle_w": cluster.server.idle_power_w,
        "total_energy_j": hybrid.total_energy_j,
        "sc_fraction": hybrid.sc_fraction,
    }


def enforce_gate(section: str, measurement: dict, metric: str,
                 unit: str) -> None:
    """Fail when ``metric`` regressed past the gate (see module doc)."""
    if os.environ.get("REPRO_BENCH_SKIP_GATE"):
        return
    baseline = baseline_section(section)
    if baseline is None:
        return
    assert baseline["config_hash"] == measurement["config_hash"], (
        f"{section} benchmark configuration changed; re-record the "
        f"'{section}' section of BENCH_baseline.json")
    floor = baseline[metric] * GATE_FRACTION
    assert measurement[metric] >= floor, (
        f"{section} throughput regression: {measurement[metric]:,.2f} "
        f"{unit} is below {GATE_FRACTION:.0%} of the recorded baseline "
        f"{baseline[metric]:,.2f} {unit}")
