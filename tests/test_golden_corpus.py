"""Both engines against the frozen golden corpus, byte for byte.

``tests/golden/corpus.jsonl`` holds the serialized result of every
request in :func:`tests.golden.generate.corpus_requests`: all six
policies on the eight Table 1 workloads, renewable and DoD-capped
lanes, and one schedule per fault class.  The scalar engine
(:func:`~repro.runner.execute_request`) and the batched runner must
reproduce each line exactly, so any change to simulated numbers, in
either engine, fails here.  The corpus is never regenerated to make a
refactor pass.
"""

from __future__ import annotations

import pytest

from repro.faults import FAULT_CLASSES
from repro.runner import ExperimentRunner, execute_request
from repro.sim.results import to_json_line

from tests.golden.generate import (CORPUS_PATH, FAULT_SCHEDULES,
                                   corpus_requests)


@pytest.fixture(scope="module")
def corpus():
    requests = corpus_requests()
    lines = CORPUS_PATH.read_text().splitlines()
    assert len(lines) == len(requests)
    return requests, lines


def _assert_lines(results, requests, lines):
    for index, (result, request, line) in enumerate(
            zip(results, requests, lines)):
        assert to_json_line(result) == line, (
            f"corpus line {index + 1} ({request.scheme} "
            f"{request.workload}) diverged")


def test_every_fault_class_has_a_schedule():
    assert sorted(FAULT_SCHEDULES) == sorted(FAULT_CLASSES)
    for kind, schedule in FAULT_SCHEDULES.items():
        assert kind in {event.kind for event in schedule.events}


def test_scalar_engine_matches_corpus(corpus):
    requests, lines = corpus
    _assert_lines([execute_request(r) for r in requests], requests, lines)


def test_batched_runner_matches_corpus(corpus):
    requests, lines = corpus
    runner = ExperimentRunner(jobs=1)
    results = runner.map(requests)
    assert runner.batched == len(requests)
    _assert_lines(results, requests, lines)
