"""Program process of the ``sweep`` and ``faulted`` workloads.

Usage: ``python3 perfbench/worker.py JOB.json [--setup-only]``

Sets up (imports, policy warm-up, spec parsing), prints ``READY`` and
waits for ``GO`` on stdin.  Then, for the job's seconds, it repeats one
``ExperimentRunner(jobs=1, cache=<fresh empty dir>).map`` call over the
whole grid, timing each call.  A traced job spends the first half
untraced and the second half traced, so the difference is the tracing
overhead.  Outside the timed calls it compares every repetition with the
first, result by result, and re-derives a seeded sample of results with
a fresh ``execute_request``.  It ends with one ``RESULT`` line.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

import harness
import spans
import specs


@dataclass
class Phase:
    """What one timed phase measured."""

    op_s: List[float] = field(default_factory=list)
    operations: List[spans.Operation] = field(default_factory=list)
    runner_counts: Dict[str, int] = field(default_factory=dict)
    wrong: int = 0
    results: Optional[list] = None


def run_phase(requests: list, seconds: float, work_dir: Path, tag: str,
              reference: Optional[list],
              recorder: Optional[spans.SpanRecorder] = None,
              profile_ticks: bool = False) -> Phase:
    """Repeat the grid's ``runner.map`` call for ``seconds``."""
    from repro.runner import ExperimentRunner, ResultCache

    phase = Phase()
    context = (spans.patched(spans.program_patches(recorder, profile_ticks))
               if recorder is not None else nullcontext())
    deadline = perf_counter() + seconds
    with context:
        while True:
            cache_dir = work_dir / f"{tag}-{len(phase.op_s)}"
            runner = ExperimentRunner(jobs=1, cache=ResultCache(cache_dir))
            mark = len(recorder.spans) if recorder is not None else 0
            start = perf_counter()
            results = runner.map(requests)
            elapsed = perf_counter() - start
            phase.op_s.append(elapsed)
            if recorder is not None:
                phase.operations.append(spans.Operation(
                    elapsed, [span for span in recorder.spans[mark:]
                              if span.parent is None]))
            for name in ("hits", "misses", "batched", "coalesced"):
                phase.runner_counts[name] = (phase.runner_counts.get(name, 0)
                                             + getattr(runner, name))
            if reference is None:
                reference = phase.results = results
            phase.wrong += sum(got != want
                               for got, want in zip(results, reference))
            shutil.rmtree(cache_dir)
            if perf_counter() >= deadline:
                return phase


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("job", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    specs.use_source_tree()

    from repro.runner import execute_request
    from repro.service import request_from_spec

    job = json.loads(args.job.read_text(encoding="utf-8"))
    requests = [request_from_spec(spec) for spec in job["specs"]]
    harness.warm_up()
    harness.announce("READY")
    if args.setup_only:
        return 0
    if not sys.stdin.readline():
        return 1  # the orchestrator went away before GO

    work_dir = Path(job["work_dir"])
    seconds = job["seconds"] / 2 if job["trace"] else job["seconds"]
    plain = run_phase(requests, seconds, work_dir, "plain", None)
    report: Dict[str, Any] = {"op_s": plain.op_s,
                              "scenarios": len(requests)}
    wrong = plain.wrong
    attempted = len(plain.op_s) * len(requests)
    if job["trace"]:
        recorder = spans.SpanRecorder()
        traced = run_phase(requests, seconds, work_dir, "traced",
                           plain.results, recorder,
                           profile_ticks=job["workload"] == "faulted")
        wrong += traced.wrong
        attempted += len(traced.op_s) * len(requests)
        table = spans.layer_table(traced.operations, recorder.spans)
        metrics = spans.program_metrics(recorder.spans, recorder.counts,
                                        traced.runner_counts)
        metrics["unattributed_frac"] = table.unattributed_s / table.e2e_s
        metrics["trace.overhead_frac"] = (spans.mean(traced.op_s)
                                          / spans.mean(plain.op_s) - 1.0)
        report["traced"] = {"op_s": traced.op_s, "metrics": metrics,
                            "table": table.format(
                                "layer table, per runner.map call")}
    report["peak_rss_mb"] = harness.peak_rss_mb()

    # Correctness, outside every timed region.
    reference = plain.results
    checked = wrong_sampled = 0
    for index in job["sample"]:
        checked += 1
        wrong_sampled += execute_request(requests[index]) != reference[index]
    report.update(digest=harness.digest(reference), attempted=attempted,
                  wrong=wrong + wrong_sampled, checked=checked)
    harness.announce("RESULT", report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
