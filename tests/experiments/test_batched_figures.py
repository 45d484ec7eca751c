"""The paper figures through the batched runner, against the scalar path.

The experiment drivers call ``get_runner().map(...)``, so with batching
enabled (the default) the golden figures execute through
``BatchSimulation`` grouping.  These tests pin the router-level
contract: the batched and scalar execution paths produce the same
figures — identical values, identical cache keys — including the
resilience sweep, whose fault-injected requests batch with its clean
ones.
"""

from __future__ import annotations

import pytest

from repro.experiments import run_fig12, run_fig13, run_resilience
from repro.runner import ExperimentRunner, ResultCache, using_runner

#: The satellites' acceptance bound; the engines are in fact bit-exact,
#: so any measurable drift is a real regression.
TOLERANCE = 1e-9

FIG12_PARAMS = dict(duration_h=0.5, seed=1, workloads=("TS", "PR"),
                    renewable_workloads=("TS",))
FIG13_PARAMS = dict(duration_h=0.5, seed=1, workloads=("DA",),
                    ratios=(0.1, 0.3))
RESILIENCE_PARAMS = dict(duration_h=0.25, seed=1,
                         schemes=("BaOnly", "HEB-D"),
                         intensities=(0.0, 1.0))


def assert_rows_close(batched_rows, scalar_rows, label):
    assert set(batched_rows) == set(scalar_rows), label
    for key, scalar_row in scalar_rows.items():
        batched_row = batched_rows[key]
        assert set(batched_row) == set(scalar_row), f"{label} {key}"
        for metric, expected in scalar_row.items():
            actual = batched_row[metric]
            if isinstance(expected, float):
                assert abs(actual - expected) <= TOLERANCE, (
                    f"{label} {key}.{metric}: batched {actual!r} vs "
                    f"scalar {expected!r}")
            else:
                assert actual == expected, f"{label} {key}.{metric}"


class TestFiguresBatchedVsScalar:
    def test_fig12_identical_through_batched_runner(self):
        with using_runner(ExperimentRunner(jobs=1, batch=True)) as runner:
            batched = run_fig12(**FIG12_PARAMS)
            assert runner.batched > 0, (
                "fig12's compatible requests must route through the "
                "batched engine")
        with using_runner(ExperimentRunner(jobs=1, batch=False)):
            scalar = run_fig12(**FIG12_PARAMS)
        assert_rows_close(batched.scheme_rows(), scalar.scheme_rows(),
                          "fig12")

    def test_fig13_identical_through_batched_runner(self):
        with using_runner(ExperimentRunner(jobs=1, batch=True)):
            batched = run_fig13(**FIG13_PARAMS)
        with using_runner(ExperimentRunner(jobs=1, batch=False)):
            scalar = run_fig13(**FIG13_PARAMS)
        assert set(batched) == set(scalar)
        for ratio, scalar_point in scalar.items():
            batched_point = batched[ratio]
            for metric in ("energy_efficiency", "downtime_s",
                           "lifetime_years", "reu"):
                actual = getattr(batched_point, metric)
                expected = getattr(scalar_point, metric)
                assert abs(actual - expected) <= TOLERANCE, (
                    f"fig13 ratio {ratio} {metric}: {actual!r} vs "
                    f"{expected!r}")

    def test_resilience_sweep_identical_with_faulted_lanes_batched(self):
        """Faulted and zero-intensity lanes share one batched group;
        the sweep must not notice."""
        with using_runner(ExperimentRunner(jobs=1, batch=True)) as runner:
            batched = run_resilience(**RESILIENCE_PARAMS)
            assert runner.batched == runner.misses
        with using_runner(ExperimentRunner(jobs=1, batch=False)):
            scalar = run_resilience(**RESILIENCE_PARAMS)
        assert set(batched) == set(scalar)
        for scheme, scalar_points in scalar.items():
            batched_points = batched[scheme]
            assert len(batched_points) == len(scalar_points)
            for got, want in zip(batched_points, scalar_points):
                assert got == want, f"resilience {scheme}: {got} != {want}"


class TestFigureCacheInterop:
    def test_fig12_cache_keys_shared_across_paths(self, tmp_path):
        """Entries written by the batched path satisfy the scalar path
        (and vice versa): cache keys are request-content-addressed and
        results are interchangeable."""
        cache = ResultCache(tmp_path / "cache")
        with using_runner(ExperimentRunner(jobs=1, cache=cache,
                                           batch=True)) as writer:
            run_fig12(**FIG12_PARAMS)
            writes = writer.misses
            assert writes > 0 and writer.hits == 0
        with using_runner(ExperimentRunner(jobs=1, cache=cache,
                                           batch=False)) as reader:
            run_fig12(**FIG12_PARAMS)
            assert reader.hits == writes
            assert reader.misses == 0
