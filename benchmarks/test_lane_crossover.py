"""Measurement: how many lanes the batched engine needs to beat scalar.

For random mixed groups of 1 to 48 lanes (any policy, any Table 1
workload, distinct trace seeds) at 2-minute and 15-minute durations,
this times ``execute_request_group`` (one ``BatchSimulation`` tick loop)
against the same requests run one by one through ``execute_request``.
Both sides include building the simulations, as the runner pays it.
Each side's cost is reported per lane-tick, with the batch/scalar ratio
and the break-even lane count.  Both paths must return exactly equal
results.  Nothing is gated: the printed table is the output::

    PYTHONPATH=src python -m pytest benchmarks/test_lane_crossover.py -s
"""

from __future__ import annotations

import random
from statistics import median
from time import perf_counter

import pytest

from repro.core.policies import POLICY_NAMES
from repro.runner.batch import execute_request_group
from repro.runner.request import (ExperimentSetup, RunRequest,
                                  build_simulation, execute_request)
from repro.workloads import workload_names

LANES = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48)
#: Timed repetitions per side and group; the median is reported.
REPEATS = 3
SEED = 13


def _random_group(rng: random.Random, lanes: int,
                  duration_h: float) -> list:
    return [RunRequest(scheme=rng.choice(POLICY_NAMES),
                       workload=rng.choice(workload_names()),
                       setup=ExperimentSetup(duration_h=duration_h,
                                             seed=rng.randrange(1, 10**6)))
            for _ in range(lanes)]


def _warm_up() -> None:
    """Seed every policy's lazily built tables before anything is timed."""
    group = [RunRequest(scheme=scheme, workload="PR",
                        setup=ExperimentSetup(duration_h=1.0 / 60.0))
             for scheme in POLICY_NAMES]
    execute_request_group(group)
    for request in group:
        execute_request(request)


@pytest.mark.parametrize("duration_min", (2, 15))
def test_lane_crossover(duration_min):
    duration_h = duration_min / 60.0
    rng = random.Random(SEED + duration_min)
    _warm_up()
    ticks = build_simulation(
        _random_group(rng, 1, duration_h)[0]).trace.num_samples

    rows = []
    for lanes in LANES:
        group = _random_group(rng, lanes, duration_h)
        scalar_s, batch_s = [], []
        for repeat in range(REPEATS):
            sides = ["scalar", "batch"]
            if repeat % 2:
                sides.reverse()
            for side in sides:
                start = perf_counter()
                if side == "scalar":
                    scalar = [execute_request(request) for request in group]
                    scalar_s.append(perf_counter() - start)
                else:
                    batched = execute_request_group(group)
                    batch_s.append(perf_counter() - start)
            assert batched == scalar
        lane_ticks = lanes * ticks
        rows.append((lanes, median(scalar_s) / lane_ticks * 1e6,
                     median(batch_s) / lane_ticks * 1e6))

    print(f"\nlane crossover: {duration_min}-minute scenarios "
          f"({ticks} ticks), median of {REPEATS}")
    print(f"{'lanes':>5}  {'scalar us/lane-tick':>19}  "
          f"{'batch us/lane-tick':>18}  {'batch/scalar':>12}")
    for lanes, scalar_us, batch_us in rows:
        print(f"{lanes:>5}  {scalar_us:>19.1f}  {batch_us:>18.1f}  "
              f"{batch_us / scalar_us:>12.2f}")
    cheaper = [lanes for lanes, scalar_us, batch_us in rows
               if batch_us < scalar_us]
    print(f"break-even: batch is cheaper from "
          f"{cheaper[0] if cheaper else 'no measured'} lanes")
