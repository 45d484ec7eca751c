"""Benchmark: engine throughput with regression gates.

Unlike the figure benchmarks (which reproduce paper results), this one
guards the engine's *speed* along two axes:

* ``engine`` — single-scenario tick-loop throughput: the canonical
  HEB-D x PR run on the default six-server prototype configuration,
  reported as ticks/s.
* ``batch`` — multi-scenario sweep throughput: a 256-scenario sweep
  (every policy x every workload x six seeds) advanced by one
  ``BatchSimulation`` tick loop, reported as scenarios/s.  The same
  sweep is replayed sequentially through the scalar engine as a
  bit-exactness oracle (every ``RunResult`` must compare equal) and to
  record an honest batched-vs-scalar speedup.
* ``faulted`` — the resilience grid through the runner: every policy x
  every workload, each under the resilience experiment's fault storm,
  in one ``ExperimentRunner.map`` call that must batch every request.
  The grid is replayed on the scalar engine as the oracle, and the
  gate is on ``speedup_vs_scalar``: a silent fall-back to the scalar
  path runs at about a third of the batched speed.

The measurements land in ``benchmarks/BENCH_engine.json`` and fail
when the gated metric regresses more than 30% below the matching
section of ``benchmarks/BENCH_baseline.json``.

The baselines are keyed by a commit-agnostic hash of the benchmark
configuration (scenarios, durations, cluster and buffer sizing), so
editing the benchmark invalidates the baseline loudly instead of
silently comparing different workloads.  Set ``REPRO_BENCH_SKIP_GATE=1``
to measure without enforcing (e.g. on a loaded machine).
"""

from __future__ import annotations

import itertools
from time import perf_counter

from repro.core import make_policy
from repro.core.policies import POLICY_NAMES
from repro.experiments.resilience import fault_schedule_for
from repro.runner import ExperimentRunner
from repro.runner.request import (ExperimentSetup, RunRequest,
                                  build_simulation, execute_request)
from repro.sim import HybridBuffers, Simulation
from repro.sim.batch import BatchSimulation
from repro.units import hours
from repro.workloads import get_workload

from .gate import (
    digest,
    enforce_gate,
    sizing_payload,
    write_section,
)

SCHEME = "HEB-D"
WORKLOAD = "PR"
DURATION_H = 2.0
SEED = 1
ROUNDS = 5

# The expected simulation outcome for this exact configuration; any
# optimization that changes the simulated numbers is a bug, not a win.
EXPECTED_EFFICIENCY = 0.9585311736123626

#: The batched sweep: every policy x every workload x six seeds, capped
#: at 256 scenarios (hundreds of lanes — the regime the batched engine
#: exists for).
WORKLOADS = ("PR", "WC", "DA", "WS", "MS", "DFS", "HB", "TS")
BATCH_SEEDS = range(1, 7)
BATCH_SCENARIOS = 256
BATCH_DURATION_H = 0.5
BATCH_ROUNDS = 3

#: The faulted grid: every policy x every workload, 15 minutes each,
#: storm intensities rotating over the grid.
FAULTED_DURATION_H = 0.25
FAULTED_INTENSITIES = (0.25, 0.5, 0.75, 1.0)
FAULTED_ROUNDS = 3


def _config_hash(setup: ExperimentSetup) -> str:
    """Commit-agnostic fingerprint of everything the measurement depends on."""
    payload = {
        "scheme": SCHEME,
        "workload": WORKLOAD,
        "duration_h": DURATION_H,
        "seed": SEED,
    }
    payload.update(sizing_payload(setup))
    return digest(payload)


def _batch_config_hash(requests) -> str:
    payload = {
        "duration_h": BATCH_DURATION_H,
        "scenarios": [[r.scheme, r.workload, r.setup.seed]
                      for r in requests],
    }
    payload.update(sizing_payload(requests[0].setup))
    return digest(payload)


def _measure() -> dict:
    setup = ExperimentSetup(duration_h=DURATION_H, seed=SEED)
    cluster = setup.cluster()
    hybrid = setup.hybrid()
    trace = get_workload(WORKLOAD, duration_s=hours(DURATION_H),
                         num_servers=cluster.num_servers,
                         server=cluster.server, seed=SEED)
    policy = make_policy(SCHEME, hybrid, None)

    def one_run():
        buffers = HybridBuffers(hybrid, include_sc=True)
        sim = Simulation(trace, policy, buffers, cluster_config=cluster)
        start = perf_counter()
        result = sim.run()
        return perf_counter() - start, result

    one_run()  # warm-up: imports, numpy caches, branch warm paths
    best_wall = None
    result = None
    for _ in range(ROUNDS):
        wall, result = one_run()
        if best_wall is None or wall < best_wall:
            best_wall = wall

    ticks = trace.num_samples
    return {
        "scheme": SCHEME,
        "workload": WORKLOAD,
        "duration_h": DURATION_H,
        "seed": SEED,
        "rounds": ROUNDS,
        "ticks": ticks,
        "wall_s": round(best_wall, 6),
        "ticks_per_s": round(ticks / best_wall, 1),
        "config_hash": _config_hash(setup),
        "energy_efficiency": result.metrics.energy_efficiency,
    }


def _batch_requests():
    combos = itertools.product(BATCH_SEEDS, POLICY_NAMES, WORKLOADS)
    return [
        RunRequest(scheme=scheme, workload=workload,
                   setup=ExperimentSetup(duration_h=BATCH_DURATION_H,
                                         seed=seed))
        for seed, scheme, workload in itertools.islice(
            combos, BATCH_SCENARIOS)
    ]


def _warm_policies() -> None:
    """Policy seeding is memoized per scheme; a one-minute run per
    scheme pays that cost before any timed pass."""
    for scheme in POLICY_NAMES:
        execute_request(RunRequest(
            scheme=scheme, workload="WS",
            setup=ExperimentSetup(duration_h=1.0 / 60.0)))


def _measure_batch() -> tuple[dict, list, list]:
    requests = _batch_requests()
    _warm_policies()

    best_wall = None
    batched = None
    for _ in range(BATCH_ROUNDS):
        start = perf_counter()
        sims = [build_simulation(request) for request in requests]
        batched = BatchSimulation(sims).run_all()
        wall = perf_counter() - start
        if best_wall is None or wall < best_wall:
            best_wall = wall

    # One sequential pass through the scalar engine: the bit-exactness
    # oracle for the batched results, and the honest denominator for the
    # recorded speedup (single-shot — repeating a multi-second sweep is
    # not worth the bench time).
    start = perf_counter()
    scalar = [execute_request(request) for request in requests]
    scalar_wall = perf_counter() - start

    measurement = {
        "scenarios": len(requests),
        "duration_h": BATCH_DURATION_H,
        "schemes": list(POLICY_NAMES),
        "workloads": list(WORKLOADS),
        "seeds": list(BATCH_SEEDS),
        "rounds": BATCH_ROUNDS,
        "wall_s": round(best_wall, 6),
        "scenarios_per_s": round(len(requests) / best_wall, 2),
        "scalar_wall_s": round(scalar_wall, 6),
        "speedup_vs_scalar": round(scalar_wall / best_wall, 2),
        "config_hash": _batch_config_hash(requests),
    }
    return measurement, batched, scalar


def _faulted_requests():
    duration_s = hours(FAULTED_DURATION_H)
    requests = []
    for row, scheme in enumerate(POLICY_NAMES):
        for column, workload in enumerate(WORKLOADS):
            intensity = FAULTED_INTENSITIES[
                (row + column) % len(FAULTED_INTENSITIES)]
            requests.append(RunRequest(
                scheme=scheme, workload=workload,
                setup=ExperimentSetup(duration_h=FAULTED_DURATION_H,
                                      seed=1 + column),
                faults=fault_schedule_for(intensity, duration_s,
                                          seed=1 + row)))
    return requests


def _faulted_config_hash(requests) -> str:
    payload = {
        "duration_h": FAULTED_DURATION_H,
        "scenarios": [[r.scheme, r.workload, r.setup.seed,
                       r.faults.to_dict()] for r in requests],
    }
    payload.update(sizing_payload(requests[0].setup))
    return digest(payload)


def _measure_faulted() -> tuple[dict, list, list]:
    requests = _faulted_requests()
    _warm_policies()

    best_wall = None
    batched = None
    for _ in range(FAULTED_ROUNDS):
        runner = ExperimentRunner(jobs=1)
        start = perf_counter()
        batched = runner.map(requests)
        wall = perf_counter() - start
        if best_wall is None or wall < best_wall:
            best_wall = wall

    start = perf_counter()
    scalar = [execute_request(request) for request in requests]
    scalar_wall = perf_counter() - start

    measurement = {
        "scenarios": len(requests),
        "duration_h": FAULTED_DURATION_H,
        "intensities": list(FAULTED_INTENSITIES),
        "rounds": FAULTED_ROUNDS,
        "batched": runner.batched,
        "wall_s": round(best_wall, 6),
        "scenarios_per_s": round(len(requests) / best_wall, 2),
        "scalar_wall_s": round(scalar_wall, 6),
        "speedup_vs_scalar": round(scalar_wall / best_wall, 2),
        "config_hash": _faulted_config_hash(requests),
    }
    return measurement, batched, scalar


def test_engine_throughput():
    measurement = _measure()
    write_section("engine", measurement)
    print()
    print(f"engine throughput: {measurement['ticks_per_s']:,.0f} ticks/s "
          f"({measurement['ticks']} ticks in {measurement['wall_s']:.3f} s)")

    # Correctness anchor: the timed run must produce the golden numbers.
    assert measurement["energy_efficiency"] == EXPECTED_EFFICIENCY

    enforce_gate("engine", measurement, "ticks_per_s", "ticks/s")


def test_batched_sweep_throughput():
    measurement, batched, scalar = _measure_batch()
    write_section("batch", measurement)
    print()
    print(f"batched sweep: {measurement['scenarios_per_s']:,.1f} "
          f"scenarios/s ({measurement['scenarios']} scenarios in "
          f"{measurement['wall_s']:.3f} s; "
          f"{measurement['speedup_vs_scalar']:.2f}x vs scalar)")

    # Correctness anchor: the batched sweep must be bit-identical to the
    # scalar oracle, scenario by scenario.
    requests = _batch_requests()
    assert len(batched) == len(scalar) == len(requests)
    for request, got, want in zip(requests, batched, scalar):
        assert got == want, (
            f"{request.scheme} x {request.workload} seed "
            f"{request.setup.seed} diverged from the scalar oracle")

    enforce_gate("batch", measurement, "scenarios_per_s", "scenarios/s")


def test_faulted_grid_batches_and_beats_scalar():
    measurement, batched, scalar = _measure_faulted()
    write_section("faulted", measurement)
    print()
    print(f"faulted grid: {measurement['scenarios_per_s']:,.1f} "
          f"scenarios/s ({measurement['scenarios']} storms in "
          f"{measurement['wall_s']:.3f} s; "
          f"{measurement['speedup_vs_scalar']:.2f}x vs scalar)")

    # Every storm must take the batched engine — planned into a group,
    # and accepted by the engine rather than falling back inside the
    # runner — and match the scalar oracle result for result.
    requests = _faulted_requests()
    assert measurement["batched"] == len(requests)
    BatchSimulation([build_simulation(request) for request in requests])
    assert len(batched) == len(scalar) == len(requests)
    for request, got, want in zip(requests, batched, scalar):
        assert got == want, (
            f"{request.scheme} x {request.workload} under "
            f"{request.faults.classes_present()} diverged from the scalar "
            f"oracle")

    enforce_gate("faulted", measurement, "speedup_vs_scalar", "x")
