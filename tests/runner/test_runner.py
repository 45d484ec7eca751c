"""Tests for ExperimentRunner: parallelism, caching, the active runner."""

import pytest

from repro.errors import ConfigurationError
from repro.runner import (
    ExperimentRunner,
    ExperimentSetup,
    ResultCache,
    RunRequest,
    get_runner,
    run_requests,
    set_runner,
    using_runner,
)

FAST = ExperimentSetup(duration_h=0.2)

# Cheap schemes only (no PAT pilot profiling) so the process-pool tests
# stay fast even when workers have to cold-start.
GRID = [RunRequest(scheme, workload, setup=FAST)
        for scheme in ("BaOnly", "SCFirst", "HEB-F")
        for workload in ("TS", "PR")]


class TestRunnerBasics:
    def test_invalid_jobs_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentRunner(jobs=0)

    def test_effective_jobs_defaults_to_cpu_count(self):
        import os
        assert ExperimentRunner().effective_jobs == (os.cpu_count() or 1)
        assert ExperimentRunner(jobs=3).effective_jobs == 3

    def test_results_align_with_requests(self):
        results = ExperimentRunner(jobs=1).map(GRID)
        assert [(r.scheme, r.workload) for r in results] == [
            (request.scheme, request.workload) for request in GRID]

    def test_empty_batch(self):
        assert ExperimentRunner(jobs=1).map([]) == []


class TestParallelEqualsSerial:
    def test_parallel_reproduces_serial_bit_for_bit(self):
        """Same seeds => same RunResult, worker processes or not."""
        serial = ExperimentRunner(jobs=1).map(GRID)
        parallel = ExperimentRunner(jobs=2).map(GRID)
        for serial_run, parallel_run in zip(serial, parallel):
            assert serial_run.to_dict() == parallel_run.to_dict(), (
                serial_run.scheme, serial_run.workload)


class TestCachingRunner:
    def test_cold_then_warm(self, tmp_path):
        runner = ExperimentRunner(jobs=1, cache=ResultCache(tmp_path))
        requests = GRID[:3]
        cold = runner.map(requests)
        assert runner.misses == 3 and runner.hits == 0
        warm = runner.map(requests)
        assert runner.hits == 3
        for a, b in zip(cold, warm):
            assert a.to_dict() == b.to_dict()

    def test_cache_shared_between_runners(self, tmp_path):
        first = ExperimentRunner(jobs=1, cache=ResultCache(tmp_path))
        first.map(GRID[:2])
        second = ExperimentRunner(jobs=1, cache=ResultCache(tmp_path))
        second.map(GRID[:2])
        assert second.hits == 2 and second.misses == 0

    def test_partial_hits_fill_the_gaps(self, tmp_path):
        runner = ExperimentRunner(jobs=1, cache=ResultCache(tmp_path))
        runner.map(GRID[:2])
        results = runner.map(GRID[:4])
        assert runner.hits == 2 and runner.misses == 4
        assert [(r.scheme, r.workload) for r in results] == [
            (request.scheme, request.workload) for request in GRID[:4]]

    def test_pool_with_cache_cold_then_warm(self, tmp_path):
        """The pool forks after the cache has opened its database; the
        parent writes every miss and a warm rerun answers from it."""
        serial = ExperimentRunner(jobs=1).map(GRID)
        cache = ResultCache(tmp_path)
        cold = ExperimentRunner(jobs=2, cache=cache)
        assert cold.map(GRID) == serial
        assert cold.misses == len(GRID) and cold.hits == 0
        warm = ExperimentRunner(jobs=2, cache=cache)
        assert warm.map(GRID) == serial
        assert warm.hits == len(GRID) and warm.misses == 0

    def test_cacheless_counts_every_run_as_miss(self):
        runner = ExperimentRunner(jobs=1)
        runner.map(GRID[:2])
        assert runner.misses == 2 and runner.hits == 0


class TestActiveRunner:
    def test_default_is_serial_and_cacheless(self):
        runner = get_runner()
        assert runner.jobs == 1
        assert runner.cache is None

    def test_using_runner_scopes_and_restores(self):
        previous = get_runner()
        scoped = ExperimentRunner(jobs=1)
        with using_runner(scoped) as active:
            assert active is scoped
            assert get_runner() is scoped
        assert get_runner() is previous

    def test_set_runner_none_restores_default(self):
        custom = ExperimentRunner(jobs=1)
        set_runner(custom)
        try:
            assert get_runner() is custom
        finally:
            set_runner(None)
        assert get_runner().cache is None

    def test_run_requests_uses_active_runner(self, tmp_path):
        scoped = ExperimentRunner(jobs=1, cache=ResultCache(tmp_path))
        with using_runner(scoped):
            run_requests(GRID[:1])
        assert scoped.misses == 1

    def test_experiments_route_through_active_runner(self, tmp_path):
        from repro.experiments import run_scheme
        scoped = ExperimentRunner(jobs=1, cache=ResultCache(tmp_path))
        with using_runner(scoped):
            run_scheme("SCFirst", "TS", FAST)
            run_scheme("SCFirst", "TS", FAST)
        assert scoped.misses == 1 and scoped.hits == 1
