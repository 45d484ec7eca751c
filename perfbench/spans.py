"""In-memory span recorder, the layer wrappers, and the layer table.

Spans are recorded from the benchmark's own code: :func:`patched` swaps
the program's entry points for timing wrappers and restores them on
exit.  Nothing inside ``src/`` changes, and an untraced run installs
nothing.  A span is a name, a start and an end on the monotonic clock
(``perf_counter``, which every process of the host shares), the span
that was open on the same thread when it began, and a context that ties
it to a request or a batch.  Spans stay in memory until the run ends.

A layer's *self time* is its span's duration minus the part its child
spans cover.  :func:`layer_table` attributes the self time of every span
below an operation's root spans to that operation; whatever of the
operation's end-to-end time no span covers is ``unattributed``, so the
rows always add up to the end-to-end total.
"""

from __future__ import annotations

import threading
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

Annotate = Callable[["Span", tuple, Any], None]


class Span:
    """One timed call of one layer."""

    __slots__ = ("name", "start", "end", "parent", "ctx", "attrs")

    def __init__(self, name: str, start: float, parent: Optional["Span"],
                 ctx: Any) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.ctx = ctx
        self.attrs: Optional[Dict[str, Any]] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans from any thread; each thread nests its own spans."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        """The innermost open span of the calling thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name: str, ctx: Any = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if ctx is None and parent is not None:
            ctx = parent.ctx
        span = Span(name, perf_counter(), parent, ctx)
        with self._lock:
            self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack().pop()

    def count(self, name: str, value: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, name: str, fn: Callable,
             annotate: Optional[Annotate] = None) -> Callable:
        """``fn`` timed as a span named ``name``.

        ``annotate(span, args, result)`` runs after the span closed, when
        the caller's span is again :meth:`current`.
        """
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if annotate is not None:
                annotate(span, args, result)
            return result
        return traced


#: (owner, attribute, replacement) — one swapped entry point.
Patch = Tuple[Any, str, Any]


@contextmanager
def patched(patches: Sequence[Patch]) -> Iterator[None]:
    """Swap each ``owner.attribute`` for its replacement, then restore."""
    with ExitStack() as stack:
        for owner, attr, replacement in patches:
            original = getattr(owner, attr)
            stack.callback(setattr, owner, attr, original)
            setattr(owner, attr, replacement)
        yield


def program_patches(recorder: SpanRecorder,
                    profile_ticks: bool = False) -> List[Patch]:
    """Wrappers around the runner, cache, workload, policy and both engines.

    With ``profile_ticks`` every scalar run also gets a ``TickProfiler``
    through ``execute_request(request, profiler=...)``, and its report
    is folded into ``recorder.counts`` by :func:`record_profile`.  A
    profiler forces the scalar path, so only a workload that never
    batches may ask for it.
    """
    from repro.errors import BatchCompatibilityError
    from repro.perf import TickProfiler
    from repro.runner import batch as batch_mod
    from repro.runner import cache as cache_mod
    from repro.runner import request as request_mod
    from repro.runner import runner as runner_mod
    from repro.service import queue as queue_mod
    from repro.sim.batch import BatchSimulation
    from repro.sim.engine import Simulation

    def lanes(span: Span, args: tuple, result: Any) -> None:
        sims = args[0].sims
        span.attrs = {"lanes": len(sims),
                      "ticks": sims[0].trace.num_samples if sims else 0}

    def ticks(span: Span, args: tuple, result: Any) -> None:
        span.attrs = {"ticks": args[0].trace.num_samples}

    def batch_simulation(sims):
        try:
            return BatchSimulation(sims)
        except BatchCompatibilityError:
            recorder.count("runner.batch_fallbacks")
            raise

    wrap = recorder.wrap
    build = wrap("sim.build", request_mod.build_simulation)
    cache_key = wrap("runner.cache_key", runner_mod.cache_key)
    patches: List[Patch] = [
        (runner_mod.ExperimentRunner, "map",
         wrap("runner.map", runner_mod.ExperimentRunner.map)),
        (runner_mod, "cache_key", cache_key),
        (queue_mod, "cache_key", cache_key),
        (runner_mod, "plan_units",
         wrap("runner.plan_units", runner_mod.plan_units)),
        (cache_mod.ResultCache, "get",
         wrap("runner.cache_get", cache_mod.ResultCache.get)),
        (cache_mod.ResultCache, "put",
         wrap("runner.cache_put", cache_mod.ResultCache.put)),
        (request_mod, "build_simulation", build),
        (batch_mod, "build_simulation", build),
        (request_mod, "get_workload",
         wrap("workloads.trace", request_mod.get_workload)),
        (request_mod, "make_policy",
         wrap("core.policy", request_mod.make_policy)),
        (batch_mod, "BatchSimulation", batch_simulation),
        (BatchSimulation, "run_all",
         wrap("sim.batch_run", BatchSimulation.run_all, lanes)),
        (Simulation, "run", wrap("sim.scalar_run", Simulation.run, ticks)),
    ]
    if profile_ticks:
        execute_request = batch_mod.execute_request

        def profiled(request):
            result = execute_request(request, profiler=TickProfiler())
            record_profile(recorder, result.perf)
            return result

        patches.append((batch_mod, "execute_request", profiled))
    return patches


def record_profile(recorder: SpanRecorder, report: Any) -> None:
    """Fold one ``PerfReport`` into the recorder's tick-phase totals."""
    recorder.count("profile.runs")
    for phase in report.phases:
        recorder.count(f"profile.phase_ns.{phase.name}",
                       int(phase.total_s * 1e9))
    for name, value in report.counters:
        recorder.count(f"profile.counter.{name}", value)


# ----------------------------------------------------------------------
# Attribution
# ----------------------------------------------------------------------

@dataclass
class Operation:
    """One end-to-end operation and the spans it waited for."""

    e2e_s: float
    roots: List[Span] = field(default_factory=list)
    #: Waits that no call span covers (e.g. queue wait), by layer name.
    waits: Dict[str, float] = field(default_factory=dict)


@dataclass
class LayerTable:
    """Self time per layer over a set of operations, plus the residual."""

    operations: int
    e2e_s: float
    self_s: Dict[str, float]
    calls: Dict[str, int]

    @property
    def unattributed_s(self) -> float:
        return self.e2e_s - sum(self.self_s.values())

    def format(self, title: str) -> str:
        per_op = 1e3 / max(1, self.operations)
        lines = [f"{title}: {self.operations} operations, "
                 f"{self.e2e_s:.4f} s end-to-end",
                 f"  {'layer':<24} {'self s':>10} {'ms/op':>9} "
                 f"{'share':>7} {'calls':>8}"]
        rows = sorted(self.self_s.items(), key=lambda item: -item[1])
        rows.append(("unattributed", self.unattributed_s))
        for name, seconds in rows:
            share = seconds / self.e2e_s if self.e2e_s else 0.0
            lines.append(f"  {name:<24} {seconds:>10.4f} "
                         f"{seconds * per_op:>9.3f} {share:>7.1%} "
                         f"{self.calls.get(name, ''):>8}")
        lines.append(f"  {'end-to-end':<24} {self.e2e_s:>10.4f} "
                     f"{self.e2e_s * per_op:>9.3f} {1:>7.1%}")
        return "\n".join(lines)


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """``id(span) -> self time`` for every span."""
    covered: Dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            key = id(span.parent)
            covered[key] = covered.get(key, 0.0) + span.duration
    return {id(span): span.duration - covered.get(id(span), 0.0)
            for span in spans}


def children_of(spans: Sequence[Span]) -> Dict[int, List[Span]]:
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append(span)
    return children


def layer_table(operations: Sequence[Operation],
                spans: Sequence[Span]) -> LayerTable:
    """Attribute every root's subtree, and every wait, to its operation."""
    own = self_times(spans)
    children = children_of(spans)
    self_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for operation in operations:
        pending = list(operation.roots)
        while pending:
            span = pending.pop()
            self_s[span.name] = self_s.get(span.name, 0.0) + own[id(span)]
            calls[span.name] = calls.get(span.name, 0) + 1
            pending.extend(children.get(id(span), ()))
        for name, seconds in operation.waits.items():
            self_s[name] = self_s.get(name, 0.0) + seconds
            calls[name] = calls.get(name, 0) + 1
    return LayerTable(operations=len(operations),
                      e2e_s=sum(op.e2e_s for op in operations),
                      self_s=self_s, calls=calls)


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------

def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def by_name(spans: Sequence[Span]) -> Dict[str, List[Span]]:
    grouped: Dict[str, List[Span]] = {}
    for span in spans:
        grouped.setdefault(span.name, []).append(span)
    return grouped


def program_metrics(spans: Sequence[Span], counts: Dict[str, int],
                    runner_counts: Dict[str, int]) -> Dict[str, float]:
    """Runner, workload, policy and engine metrics from one traced phase.

    ``runner_counts`` sums the runners' own ``hits``/``misses``/...
    counters over the phase; they and the fallback count are reported
    per ``runner.map`` call.
    """
    named = by_name(spans)

    def durations(name: str) -> List[float]:
        return [span.duration for span in named.get(name, ())]

    maps = max(1, len(named.get("runner.map", ())))
    batch = named.get("sim.batch_run", [])
    lane_ticks = sum(s.attrs["lanes"] * s.attrs["ticks"] for s in batch)
    scalar = named.get("sim.scalar_run", [])
    scalar_ticks = sum(s.attrs["ticks"] for s in scalar)
    misses = runner_counts.get("misses", 0)
    profiled = counts.get("profile.runs", 0)

    def per_profiled_run(key: str, scale: float = 1.0) -> float:
        return counts.get(key, 0) * scale / profiled if profiled else 0.0

    metrics = {
        "runner.map_s": mean(durations("runner.map")),
        "runner.plan_units_ms": mean(durations("runner.plan_units")) * 1e3,
        "runner.cache_key_us": mean(durations("runner.cache_key")) * 1e6,
        "runner.cache_get_ms": mean(durations("runner.cache_get")) * 1e3,
        "runner.cache_put_ms": mean(durations("runner.cache_put")) * 1e3,
        "runner.hits": runner_counts.get("hits", 0) / maps,
        "runner.misses": misses / maps,
        "runner.batched": runner_counts.get("batched", 0) / maps,
        "runner.coalesced": runner_counts.get("coalesced", 0) / maps,
        "runner.batch_fallbacks":
            counts.get("runner.batch_fallbacks", 0) / maps,
        "runner.batched_ratio":
            runner_counts.get("batched", 0) / misses if misses else 0.0,
        "workloads.trace_ms": mean(durations("workloads.trace")) * 1e3,
        "core.policy_ms": mean(durations("core.policy")) * 1e3,
        "sim.build_ms": mean(durations("sim.build")) * 1e3,
        "sim.batch_run_s": mean([s.duration for s in batch]),
        "sim.batch_lanes": mean([s.attrs["lanes"] for s in batch]),
        "sim.batch_us_per_lane_tick":
            (sum(s.duration for s in batch) / lane_ticks * 1e6
             if lane_ticks else 0.0),
        "sim.scalar_run_s": mean([s.duration for s in scalar]),
        "sim.scalar_us_per_tick":
            (sum(s.duration for s in scalar) / scalar_ticks * 1e6
             if scalar_ticks else 0.0),
        "sim.relay_skips":
            per_profiled_run("profile.counter.relay_skips"),
        "sim.scheduler_within_budget":
            per_profiled_run("profile.counter.scheduler_within_budget"),
    }
    for phase in PHASES:
        metrics[f"sim.phase.{phase}_s"] = per_profiled_run(
            f"profile.phase_ns.{phase}", 1e-9)
    return metrics


#: The scalar engine's tick phases, in loop order.
PHASES = ("slot", "schedule", "actuate", "buffers", "charge", "bookkeeping")
