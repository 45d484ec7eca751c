"""Round-trip tests for the RunResult serialization layer.

The runner cache stores every RunResult as one JSON document, so the
serialize -> deserialize -> equal-metrics loop must be loss-free down to
the last float bit, and the cache key must be identical no matter which
process computes it (workers hash requests independently of the parent).
"""

import dataclasses
import json
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from repro import quick_run
from repro.faults import schedule_from_dict
from repro.runner import ExperimentSetup, RunRequest, cache_key, execute_request
from repro.sim import (
    RESULT_FORMAT_VERSION,
    dump_results,
    from_json_line,
    load_results,
    result_from_dict,
    result_to_dict,
    to_json_line,
)
from repro.sim.results import RunResult, SlotRecord

FAST = ExperimentSetup(duration_h=0.2)

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "faults" / "golden"


@pytest.fixture(scope="module")
def sample_result():
    return execute_request(RunRequest("SCFirst", "TS", setup=FAST))


@pytest.fixture(scope="module")
def renewable_result():
    return execute_request(
        RunRequest("BaFirst", "PR", setup=FAST, renewable=True))


class TestDictRoundTrip:
    def test_metrics_survive_exactly(self, sample_result):
        clone = result_from_dict(result_to_dict(sample_result))
        assert clone.to_dict() == sample_result.to_dict()
        assert clone.metrics == sample_result.metrics
        assert clone.lifetime == sample_result.lifetime

    def test_slots_survive_exactly(self, sample_result):
        clone = result_from_dict(result_to_dict(sample_result))
        assert len(clone.slots) == len(sample_result.slots)
        for original, restored in zip(sample_result.slots, clone.slots):
            assert isinstance(restored, SlotRecord)
            assert restored == original

    def test_optional_reu_survives(self, renewable_result):
        assert renewable_result.metrics.reu is not None
        clone = result_from_dict(result_to_dict(renewable_result))
        assert clone.metrics.reu == renewable_result.metrics.reu
        assert (clone.metrics.renewable_capture
                == renewable_result.metrics.renewable_capture)

    def test_payload_carries_format_version(self, sample_result):
        assert result_to_dict(sample_result)["format"] == (
            RESULT_FORMAT_VERSION)

    def test_unknown_format_rejected(self, sample_result):
        payload = result_to_dict(sample_result)
        payload["format"] = RESULT_FORMAT_VERSION + 1
        with pytest.raises(ValueError):
            result_from_dict(payload)

    def test_malformed_payload_rejected(self):
        with pytest.raises(ValueError):
            result_from_dict({"format": RESULT_FORMAT_VERSION})

    def test_method_aliases(self, sample_result):
        clone = RunResult.from_dict(sample_result.to_dict())
        assert clone.to_dict() == sample_result.to_dict()


@pytest.fixture(scope="module")
def faulted_result():
    """The brownout golden case, whose BaOnly row attributes downtime."""
    golden = json.loads((GOLDEN_DIR / "brownout.json").read_text())
    return quick_run("BaOnly", faults=schedule_from_dict(golden["schedule"]),
                     **golden["params"])


def asdict_reference(result):
    """The serialization ``result_to_dict`` replaced, kept as an oracle."""
    return {
        "format": RESULT_FORMAT_VERSION,
        "scheme": result.scheme,
        "workload": result.workload,
        "metrics": dataclasses.asdict(result.metrics),
        "lifetime": dataclasses.asdict(result.lifetime),
        "slots": [dataclasses.asdict(slot) for slot in result.slots],
    }


class TestDictMatchesAsdict:
    @pytest.mark.parametrize("name", ["sample_result", "renewable_result",
                                      "faulted_result"])
    def test_equals_the_asdict_reference(self, name, request):
        result = request.getfixturevalue(name)
        assert result_to_dict(result) == asdict_reference(result)

    def test_mutating_the_dict_leaves_the_result(self, faulted_result):
        before = asdict_reference(faulted_result)
        payload = result_to_dict(faulted_result)
        payload["metrics"]["fault_downtime_s"]["brownout"] = -1.0
        payload["metrics"]["server_downtime_s"] = -1.0
        payload["lifetime"]["raw_throughput_ah"] = -1.0
        payload["slots"][0]["note"] = "mutated"
        assert asdict_reference(faulted_result) == before


class TestJsonLines:
    def test_line_round_trip_is_bit_exact(self, sample_result):
        line = to_json_line(sample_result)
        assert "\n" not in line
        clone = from_json_line(line)
        # Re-serializing the clone must give the identical byte string —
        # floats survive via shortest-repr round-tripping.
        assert to_json_line(clone) == line

    def test_line_is_plain_json(self, sample_result):
        payload = json.loads(to_json_line(sample_result))
        assert payload["scheme"] == "SCFirst"
        assert payload["workload"] == "TS"

    def test_dump_load_many(self, tmp_path, sample_result,
                            renewable_result):
        path = tmp_path / "results.jsonl"
        dump_results([sample_result, renewable_result], path)
        loaded = load_results(path)
        assert len(loaded) == 2
        assert loaded[0].to_dict() == sample_result.to_dict()
        assert loaded[1].to_dict() == renewable_result.to_dict()

    def test_load_skips_blank_lines(self, tmp_path, sample_result):
        path = tmp_path / "results.jsonl"
        path.write_text(to_json_line(sample_result) + "\n\n\n")
        assert len(load_results(path)) == 1


def _cache_key_in_subprocess(request):
    return cache_key(request)


class TestCacheKeyStability:
    """The key must not depend on which process hashes the request."""

    def test_key_stable_across_worker_processes(self):
        request = RunRequest("HEB-F", "TS", setup=FAST)
        local = cache_key(request)
        with ProcessPoolExecutor(max_workers=1) as pool:
            remote = pool.submit(_cache_key_in_subprocess, request).result()
        assert remote == local

    def test_key_stable_across_fresh_interpreters(self):
        """A cold python process (fresh imports, new hash randomization)
        must derive the same key."""
        request = RunRequest("BaOnly", "PR", setup=FAST)
        local = cache_key(request)
        src = Path(__file__).resolve().parents[2] / "src"
        script = (
            "from repro.runner import ExperimentSetup, RunRequest, cache_key\n"
            "print(cache_key(RunRequest('BaOnly', 'PR',"
            " setup=ExperimentSetup(duration_h=0.2))))\n")
        output = subprocess.run(
            [sys.executable, "-c", script], check=True, text=True,
            capture_output=True,
            env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
        ).stdout.strip()
        assert output == local
