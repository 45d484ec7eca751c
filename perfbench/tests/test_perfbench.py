"""The benchmark's own tests.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import itertools
import time

import pytest

import harness
import run
import spans
import specs
import worker


def _requests(grid):
    from repro.service import request_from_spec
    return [request_from_spec(spec) for spec in grid]


@pytest.mark.parametrize("generate", [specs.sweep_specs, specs.faulted_specs,
                                      specs.service_pool])
def test_generators_are_deterministic_per_seed(generate):
    assert generate(3) == generate(3)
    assert generate(3) != generate(4)
    _requests(generate(3))  # every spec is valid on the wire


def test_service_draws_are_deterministic_and_cold_never_repeats():
    def first(seed, client, count=400):
        return list(itertools.islice(specs.service_draws(seed, client),
                                     count))

    assert first(3, 0) == first(3, 0)
    assert first(3, 0) != first(4, 0)
    pool = specs.service_pool(3)
    cold = [spec for draws in (first(3, 0), first(3, 1))
            for kind, spec in draws if kind == "cold"]
    assert cold and all(spec not in pool for spec in cold)
    setups = [(s["scheme"], s["workload"], s["setup"]["seed"]) for s in cold]
    assert len(set(setups)) == len(setups)


def test_faulted_specs_all_carry_faults():
    for request in _requests(specs.faulted_specs(3)):
        assert request.faults is not None


def _traced_phase(grid, profile_ticks, tmp_path):
    recorder = spans.SpanRecorder()
    phase = worker.run_phase(_requests(grid), 0.0, tmp_path, "t", None,
                             recorder, profile_ticks)
    metrics = spans.program_metrics(recorder.spans, recorder.counts,
                                    phase.runner_counts)
    return phase, recorder, metrics


def test_sweep_batches_everything_and_faulted_nothing(tmp_path):
    _, _, sweep = _traced_phase(specs.sweep_specs(3)[:12], False, tmp_path)
    assert sweep["runner.batched_ratio"] == 1.0
    assert sweep["sim.batch_lanes"] == 12
    assert sweep["sim.scalar_run_s"] == 0.0

    _, _, faulted = _traced_phase(specs.faulted_specs(3)[:3], True, tmp_path)
    assert faulted["runner.batched"] == 0
    assert faulted["runner.misses"] == 3
    assert faulted["sim.scalar_run_s"] > 0.0
    assert faulted["sim.phase.schedule_s"] > 0.0


def test_corrupted_grid_result_counts_as_wrong(tmp_path):
    requests = _requests(specs.sweep_specs(3)[:4])
    honest = worker.run_phase(requests, 0.0, tmp_path, "a", None)
    assert honest.wrong == 0
    first = honest.results[0]
    corrupted = dataclasses.replace(first, metrics=dataclasses.replace(
        first.metrics,
        energy_efficiency=first.metrics.energy_efficiency + 1e-12))
    reference = [corrupted] + honest.results[1:]
    assert worker.run_phase(requests, 0.0, tmp_path, "b",
                            reference).wrong == 1


def test_corrupted_service_response_counts_as_failed():
    from repro.runner import execute_request
    from repro.service import request_from_spec

    pool = specs.service_pool(3)[:2]
    cold = next(spec for kind, spec in specs.service_draws(3, 0)
                if kind == "cold")
    requests = []
    for kind, spec in (("hot", pool[0]), ("hot", pool[1]), ("cold", cold)):
        result = harness.canonical(execute_request(request_from_spec(spec)))
        requests.append(run.Request(kind, spec, 0.0, 1.0, "key", result,
                                    ok=True))
    assert run.verify_service(requests, pool, seed=3)[0] == 0

    requests[2].result["metrics"]["energy_efficiency"] += 1e-12
    requests[0].ok = False
    assert run.verify_service(requests, pool, seed=3)[0] == 2


def test_layer_table_parts_and_unattributed_sum_to_end_to_end(tmp_path):
    recorder = spans.SpanRecorder()
    inner = recorder.wrap("inner", lambda: time.sleep(0.002))

    def body():
        inner()
        time.sleep(0.001)
        inner()

    outer = recorder.wrap("outer", body)
    operations = []
    for _ in range(3):
        start = time.perf_counter()
        outer()
        time.sleep(0.001)  # outside every span: unattributed
        operations.append(spans.Operation(
            time.perf_counter() - start, [recorder.spans[-3]],
            {"queue_wait": 0.0005}))
    table = spans.layer_table(operations, recorder.spans)
    assert table.calls == {"outer": 3, "inner": 6, "queue_wait": 3}
    assert table.self_s["inner"] >= 6 * 0.002
    assert table.unattributed_s > 0.0
    total = sum(table.self_s.values()) + table.unattributed_s
    assert total == pytest.approx(table.e2e_s, rel=1e-12)

    phase, traced, _ = _traced_phase(specs.sweep_specs(3)[:6], False,
                                     tmp_path)
    table = spans.layer_table(phase.operations, traced.spans)
    assert set(table.self_s) >= {"runner.map", "sim.batch_run",
                                 "runner.cache_put", "workloads.trace"}
    assert min(table.self_s.values()) >= 0.0
    assert 0.0 <= table.unattributed_s < 0.05 * table.e2e_s
    total = sum(table.self_s.values()) + table.unattributed_s
    assert total == pytest.approx(table.e2e_s, rel=1e-12)
