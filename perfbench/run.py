"""The repository's benchmark: one workload, one seed, one JSON line.

Usage::

    python3 perfbench/run.py --workload {sweep,faulted,service} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it measures the program in ``src/``
and exits non-zero, printing no result, when there is none.  Workloads
(see ``perfbench/NOTES.md`` for why each exists):

* ``sweep`` — the paper's evaluation grid, every request a cache miss,
  through one ``ExperimentRunner(jobs=1).map`` call per repetition;
  nearly all of it runs on the batched engine.
* ``faulted`` — the resilience grid: every scenario carries a fault
  storm, so every request takes the scalar engine and the injector.
* ``service`` — two closed-loop keep-alive clients against the HTTP
  service in its own process; 90% hot draws from a pre-populated pool,
  10% cold never-seen scenarios.

The program always runs in a process of its own, so set-up time counts
from process start, and the orchestrator's own work never shares the
program's peak memory.  With ``--trace 0`` the last line carries every
end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` the run is
split into an untraced and a traced half and carries every per-layer
metric, after a printed layer table.  Correctness is checked outside
every timed region; each wrong result counts as a failed operation.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import queue
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional, Tuple

import harness
import spans
import specs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Results per grid run that are re-derived with a fresh execute_request.
SAMPLE_SIZE = 12
#: Longest a program process may take to set up or to wind down.
CHILD_TIMEOUT_S = 120.0


class BenchError(RuntimeError):
    """The benchmark could not complete a run."""


class Child:
    """A program process speaking the tagged-line protocol of ``harness``."""

    def __init__(self, script: str, *args: str, env: Dict[str, str]) -> None:
        self.script = script
        self.started = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / script), *args],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=ROOT, env=env)
        self._lines: "queue.Queue[Tuple[float, Optional[str]]]" = \
            queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def __enter__(self) -> "Child":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()

    def _read(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self._lines.put((perf_counter(), line.rstrip("\n")))
        self._lines.put((perf_counter(), None))

    def expect(self, tag: str, timeout_s: float = CHILD_TIMEOUT_S
               ) -> Tuple[float, Any]:
        """Wait for the ``tag`` line; returns (arrival time, payload)."""
        deadline = perf_counter() + timeout_s
        while True:
            try:
                at, line = self._lines.get(
                    timeout=max(0.0, deadline - perf_counter()))
            except queue.Empty:
                raise BenchError(f"{self.script}: no {tag} within "
                                 f"{timeout_s:.0f} s") from None
            if line is None:
                raise BenchError(f"{self.script} exited with "
                                 f"{self.proc.wait()} before {tag}")
            name, _, payload = line.partition(" ")
            if name == tag:
                return at, json.loads(payload) if payload else None

    def send(self, line: str) -> None:
        assert self.proc.stdin is not None
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def finish(self, tag: Optional[str] = None) -> Any:
        """Close stdin, optionally await ``tag``, and reap the process."""
        payload = None
        try:
            if self.proc.stdin is not None and not self.proc.stdin.closed:
                self.proc.stdin.close()
            if tag is not None:
                _, payload = self.expect(tag)
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self._reader.join(timeout=CHILD_TIMEOUT_S)
        if self.proc.returncode != 0:
            raise BenchError(f"{self.script} exited with "
                             f"{self.proc.returncode}")
        return payload


@dataclass
class Outcome:
    """One run's verdict, metrics and human-readable report."""

    attempted: int
    failed: int
    metrics: Dict[str, float]
    lines: List[str] = field(default_factory=list)


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = math.ceil(round(fraction * len(ordered), 9))
    return ordered[min(max(rank, 1), len(ordered)) - 1]


def expected_digest(workload: str, seed: int) -> Optional[str]:
    """The recorded result digest, for the default seed only."""
    if seed != specs.DEFAULT_SEED:
        return None
    recorded = json.loads((BENCH / "expected.json").read_text("utf-8"))
    return recorded[workload]


# ----------------------------------------------------------------------
# sweep / faulted
# ----------------------------------------------------------------------

def run_grid(args: argparse.Namespace, work_dir: Path,
             env: Dict[str, str]) -> Outcome:
    grid = (specs.sweep_specs(args.seed) if args.workload == "sweep"
            else specs.faulted_specs(args.seed))
    job = work_dir / "job.json"
    job.write_text(json.dumps({
        "workload": args.workload, "specs": grid, "seconds": args.seconds,
        "trace": bool(args.trace), "work_dir": str(work_dir),
        "sample": specs.sample_indices(args.seed, len(grid), SAMPLE_SIZE),
    }), encoding="utf-8")

    setups: List[float] = []
    for _ in range(0 if args.trace else SETUP_REPS - 1):
        with Child("worker.py", str(job), "--setup-only", env=env) as child:
            ready, _ = child.expect("READY")
            setups.append(ready - child.started)
            child.finish()
    with Child("worker.py", str(job), env=env) as child:
        ready, _ = child.expect("READY")
        setups.append(ready - child.started)
        child.send("GO")
        _, report = child.expect("RESULT", CHILD_TIMEOUT_S + args.seconds)
        child.finish()

    failed = report["wrong"]
    want = expected_digest(args.workload, args.seed)
    digest_note = "no digest recorded for this seed"
    if want is not None:
        digest_ok = report["digest"] == want
        failed += 0 if digest_ok else len(grid)
        digest_note = "digest matches" if digest_ok else "DIGEST DIFFERS"
    op_s = report["op_s"]
    op_ms = statistics.median(op_s) * 1e3
    metrics = {
        "setup_s": statistics.median(setups),
        "scenarios_per_s": len(grid) / statistics.median(op_s),
        "p50_ms": op_ms,
        "cold_p50_ms": op_ms,
        "peak_rss_mb": report["peak_rss_mb"],
        "failed_frac": failed / report["attempted"],
    }
    lines = [
        f"perfbench {args.workload}: seed {args.seed}, {args.seconds} s, "
        f"{len(grid)} scenarios per runner.map call, jobs=1",
        f"  setup_s          {metrics['setup_s']:10.4f} s    median of "
        + ", ".join(f"{s:.3f}" for s in setups),
        f"  scenarios_per_s  {metrics['scenarios_per_s']:10.2f} 1/s  "
        f"at the median of {len(op_s)} calls",
        f"  p50_ms           {op_ms:10.2f} ms   per runner.map call; "
        f"every call simulates, so cold_p50_ms is the same",
        f"  peak_rss_mb      {metrics['peak_rss_mb']:10.2f} MB   "
        f"worker process",
        f"  failed_frac      {metrics['failed_frac']:10.4f}      "
        f"{failed} of {report['attempted']} results wrong; "
        f"{report['checked']} re-derived; {digest_note}",
    ]
    if args.trace:
        traced = report["traced"]
        metrics.update(traced["metrics"])
        lines += ["", traced["table"],
                  f"  tracing overhead: {metrics['trace.overhead_frac']:+.1%}"
                  f" ({statistics.mean(traced['op_s']):.4f} s traced vs "
                  f"{statistics.mean(op_s):.4f} s untraced per call)"]
    return Outcome(report["attempted"], failed, metrics, lines)


# ----------------------------------------------------------------------
# service
# ----------------------------------------------------------------------

@dataclass
class Request:
    """One closed-loop request as the client saw it."""

    kind: str
    spec: Dict[str, Any]
    start: float
    end: float
    key: Optional[str] = None
    result: Optional[Dict[str, Any]] = None
    ok: bool = False


@dataclass
class Drive:
    requests: List[Request]
    stats: Dict[str, Any]


def median_rate(ends: List[float], chunk: int = 100) -> float:
    """Median completion rate over runs of ``chunk`` consecutive completions."""
    ends = sorted(ends)
    return statistics.median(
        chunk / (ends[i + chunk] - ends[i])
        for i in range(0, max(1, len(ends) - chunk), chunk))


async def drive(port: int, seconds: float,
                draws: List[Iterator[Tuple[str, Dict[str, Any]]]]) -> Drive:
    """Closed loop: each client sends its next draw once the last is done."""
    from repro.errors import ProtocolError
    from repro.service import ServiceClient

    requests: List[Request] = []

    async def client_loop(stream) -> None:
        client = ServiceClient("127.0.0.1", port)
        try:
            while perf_counter() < deadline:
                kind, spec = next(stream)
                request = Request(kind, spec, perf_counter(), 0.0)
                try:
                    snapshot, rejections = await client.submit_and_wait(spec)
                except ProtocolError:
                    snapshot, rejections = {}, 0
                request.end = perf_counter()
                request.key = snapshot.get("key")
                request.result = snapshot.get("result")
                request.ok = snapshot.get("status") == "done" \
                    and not rejections
                requests.append(request)
        finally:
            await client.close()

    stats_client = ServiceClient("127.0.0.1", port)
    try:
        before = await stats_client.stats()
        start = perf_counter()
        deadline = start + seconds
        await asyncio.gather(*(client_loop(stream) for stream in draws))
        after = await stats_client.stats()
    finally:
        await stats_client.close()
    delta = {name: after[name] - before[name]
             for name in ("registry_hits", "cache_hits", "executed",
                          "rejected")}
    delta["runner"] = {name: after["runner"][name] - before["runner"][name]
                       for name in ("hits", "misses", "batched",
                                    "coalesced")}
    return Drive(requests, delta)


def server(work_dir: Path, tag: str, pool: List[Dict[str, Any]],
           trace: bool, env: Dict[str, str]) -> Child:
    """Launch the service; its spans, if traced, go to spans-<tag>.json."""
    job = work_dir / f"serve-{tag}.json"
    job.write_text(json.dumps({
        "pool": pool, "cache_dir": str(work_dir / f"cache-{tag}"),
        "trace": trace, "spans_path": str(work_dir / f"spans-{tag}.json"),
    }), encoding="utf-8")
    return Child("serve.py", str(job), env=env)


def verify_service(requests: List[Request], pool: List[Dict[str, Any]],
                   seed: int) -> Tuple[int, str]:
    """Count wrong or failed requests against fresh ``execute_request`` runs.

    Hot responses must equal the pool's results, cold responses the
    result of their own spec; the pool's digest must match the recorded
    one for the default seed.
    """
    from repro.runner import execute_request
    from repro.service import request_from_spec

    def spec_id(spec: Dict[str, Any]) -> str:
        return json.dumps(spec, sort_keys=True)

    pool_results = [execute_request(request_from_spec(spec)) for spec in pool]
    want = {spec_id(spec): harness.canonical(result)
            for spec, result in zip(pool, pool_results)}
    failed = 0
    for request in requests:
        if not request.ok:
            failed += 1
            continue
        expected = want.get(spec_id(request.spec)) if request.kind == "hot" \
            else harness.canonical(execute_request(
                request_from_spec(request.spec)))
        failed += request.result != expected
    recorded = expected_digest("service", seed)
    if recorded is None:
        return failed, "no pool digest recorded for this seed"
    if harness.digest(pool_results) != recorded:
        return failed + len(pool), "POOL DIGEST DIFFERS"
    return failed, "pool digest matches"


def load_spans(path: Path) -> Tuple[list, Dict[str, Any]]:
    """Rebuild the server's spans (parents and all) from its dump."""
    dump = json.loads(path.read_text(encoding="utf-8"))
    rebuilt: List[spans.Span] = []
    for name, start, end, parent, ctx, attrs in dump["spans"]:
        span = spans.Span(name, start,
                          rebuilt[parent] if parent is not None else None,
                          ctx)
        span.end = end
        span.attrs = attrs
        rebuilt.append(span)
    return rebuilt, dump


def service_layers(requests: List[Request], path: Path
                   ) -> Tuple[Dict[str, float], List[str], Tuple[list, Any]]:
    """Join client requests with server spans into layer tables.

    A request waited for its own ``POST``, its queue wait and its
    batch's ``run_batch`` (cold only), and its final — terminal — poll.
    Earlier polls overlap the batch and are counted, not attributed.
    Server and client share the monotonic clock, so a span belongs to a
    request when it carries the request's key and lies in its window.
    """
    rebuilt, dump = load_spans(path)
    roots: Dict[Tuple[str, Any], List[spans.Span]] = {}
    for span in rebuilt:
        if span.parent is None:
            roots.setdefault((span.name, span.ctx), []).append(span)
    group_of = {key: group for group, keys in enumerate(dump["groups"])
                for key in keys}
    claimed = set()

    def claim(name: str, request: Request, terminal: bool = False
              ) -> Optional[spans.Span]:
        for span in roots.get((name, request.key), ()):
            if (id(span) not in claimed and span.start >= request.start
                    and span.end <= request.end
                    and (not terminal or span.attrs["terminal"])):
                claimed.add(id(span))
                return span
        return None

    operations: Dict[str, List[spans.Operation]] = {"hot": [], "cold": []}
    for request in requests:
        if not request.ok:
            continue
        operation = spans.Operation(request.end - request.start)
        operation.roots = [span for span in (
            claim("service.post", request),
            claim("service.poll", request, terminal=True)) if span]
        group = group_of.get(request.key)
        if request.kind == "cold" and group is not None:
            operation.roots += roots.get(("service.run_batch", group), [])
            operation.waits["service.queue_wait"] = (
                dump["handoff"][request.key] - dump["accepted"][request.key])
        operations[request.kind].append(operation)

    tables = {kind: spans.layer_table(ops, rebuilt)
              for kind, ops in operations.items()}
    named = spans.by_name(rebuilt)
    polls = named.get("service.poll", [])
    waits = [dump["handoff"][key] - dump["accepted"][key]
             for key in dump["handoff"] if key in dump["accepted"]]
    cold = tables["cold"]
    metrics = {
        "service.submit_us": spans.mean(
            [s.duration for s in named.get("service.submit", [])]) * 1e6,
        "service.serialize_ms": spans.mean(
            [s.duration for s in named.get("service.serialize", [])]) * 1e3,
        "service.queue_wait_ms": spans.mean(waits) * 1e3,
        "service.run_batch_ms": spans.mean(
            [s.duration for s in named.get("service.run_batch", [])]) * 1e3,
        "service.group_size": spans.mean(
            [len(keys) for keys in dump["groups"]]),
        "service.polls_per_request": len(polls) / max(1, len(requests)),
        "service.useful_poll_ratio": (
            sum(s.attrs["terminal"] for s in polls) / len(polls)
            if polls else 0.0),
        "service.unattributed_ms":
            cold.unattributed_s / max(1, cold.operations) * 1e3,
        "unattributed_frac":
            cold.unattributed_s / cold.e2e_s if cold.e2e_s else 0.0,
    }
    lines = [tables["cold"].format("layer table, cold requests (ms/op is "
                                   "per request)"),
             tables["hot"].format("layer table, hot requests")]
    return metrics, lines, (rebuilt, dump)


def run_service(args: argparse.Namespace, work_dir: Path,
                env: Dict[str, str]) -> Outcome:
    pool = specs.service_pool(args.seed)
    draws = [specs.service_draws(args.seed, client)
             for client in range(specs.SERVICE_CLIENTS)]
    setups: List[float] = []
    phases = ([("plain", False), ("traced", True)] if args.trace
              else [("plain", False)])
    for rep in range(0 if args.trace else SETUP_REPS - 1):
        with server(work_dir, f"setup{rep}", pool, False, env) as child:
            ready, _ = child.expect("READY")
            setups.append(ready - child.started)
            child.finish("DONE")
    seconds = args.seconds / len(phases)
    drives: Dict[str, Drive] = {}
    for tag, trace in phases:
        with server(work_dir, tag, pool, trace, env) as child:
            ready, ports = child.expect("READY")
            setups.append(ready - child.started)
            drives[tag] = asyncio.run(drive(ports["port"], seconds, draws))
            done = child.finish("DONE")
        if tag == "plain":
            peak_rss_mb = done["peak_rss_mb"]

    plain = drives["plain"]
    every = [r for d in drives.values() for r in d.requests]
    failed, digest_note = verify_service(every, pool, args.seed)

    def latencies(kind: Optional[str]) -> List[float]:
        return [(r.end - r.start) * 1e3 for r in plain.requests
                if r.ok and kind in (None, r.kind)]

    hot, cold, both = latencies("hot"), latencies("cold"), latencies(None)
    metrics = {
        "setup_s": statistics.median(setups),
        "scenarios_per_s": median_rate([r.end for r in plain.requests]),
        "p50_ms": statistics.median(both),
        "cold_p50_ms": statistics.median(cold),
        "peak_rss_mb": peak_rss_mb,
        "failed_frac": failed / len(every),
        "service.hot_p99_ms": percentile(hot, 0.99),
        "service.cold_p90_ms": percentile(cold, 0.90),
    }
    lines = [
        f"perfbench service: seed {args.seed}, {seconds:g} s, "
        f"{specs.SERVICE_CLIENTS} closed-loop clients, jobs=1, "
        f"{specs.HOT_FRACTION:.0%} hot over a {len(pool)}-spec pool",
        f"  setup_s          {metrics['setup_s']:10.4f} s    median of "
        + ", ".join(f"{s:.3f}" for s in setups),
        f"  scenarios_per_s  {metrics['scenarios_per_s']:10.2f} 1/s  "
        f"requests_per_s, median over runs of 100 of "
        f"{len(plain.requests)} requests",
        f"  p50_ms           {metrics['p50_ms']:10.3f} ms   "
        f"all {len(both)} requests",
        f"  hot_p50_ms       {statistics.median(hot):10.3f} ms   "
        f"{len(hot)} hot requests",
        f"  hot_p99_ms       {metrics['service.hot_p99_ms']:10.3f} ms   "
        f"{len(hot) // 100} beyond it",
        f"  cold_p50_ms      {metrics['cold_p50_ms']:10.3f} ms   "
        f"{len(cold)} cold requests",
        f"  cold_p90_ms      {metrics['service.cold_p90_ms']:10.3f} ms   "
        f"{len(cold) // 10} beyond it",
        f"  peak_rss_mb      {peak_rss_mb:10.2f} MB   server process",
        f"  failed_frac      {metrics['failed_frac']:10.4f}      "
        f"{failed} of {len(every)} requests failed or wrong; "
        f"{digest_note}",
    ]
    if args.trace:
        traced = drives["traced"]
        layer_metrics, table_lines, (rebuilt, dump) = service_layers(
            traced.requests, work_dir / "spans-traced.json")
        metrics.update(layer_metrics)
        metrics.update(spans.program_metrics(rebuilt, dump["counts"],
                                             traced.stats["runner"]))
        for name in ("registry_hits", "cache_hits", "executed", "rejected"):
            metrics[f"service.{name}"] = traced.stats[name]
        plain_mean = statistics.mean(r.end - r.start for r in plain.requests)
        traced_mean = statistics.mean(r.end - r.start
                                      for r in traced.requests)
        metrics["trace.overhead_frac"] = traced_mean / plain_mean - 1.0
        lines += [""] + table_lines + [
            f"  tracing overhead: {metrics['trace.overhead_frac']:+.1%} "
            f"mean request latency ({traced_mean * 1e3:.3f} ms traced vs "
            f"{plain_mean * 1e3:.3f} ms untraced)"]
    return Outcome(len(every), failed, metrics, lines)


# ----------------------------------------------------------------------

WORKLOADS = {"sweep": run_grid, "faulted": run_grid, "service": run_service}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, default=specs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    specs.use_source_tree()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    work_root = ROOT / ".perfbench_work"
    work_dir = work_root / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    env = dict(os.environ, REPRO_CACHE_DIR=str(work_dir / "default-cache"),
               PYTHONUNBUFFERED="1")
    try:
        outcome = WORKLOADS[args.workload](args, work_dir, env)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it

    unknown = set(outcome.metrics) - {m["name"] for m in
                                      declared["end_to_end"]
                                      + declared["per_layer"]}
    if unknown:
        raise BenchError(f"metrics missing from BENCHMARK.json: {unknown}")
    print("\n".join(outcome.lines))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m["name"]: {"value": outcome.metrics.get(m["name"], 0.0),
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
