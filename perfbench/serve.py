"""Program process of the ``service`` workload: a launcher around ScenarioServer.

Usage: ``python3 perfbench/serve.py JOB.json``

Set-up is what a deployment pays before it answers: imports, policy
warm-up, writing the hot pool to the on-disk result cache through a
separate runner (so the service starts with an empty registry and its
first sight of each pool spec reads the disk), and binding a loopback
port.  Then it prints ``READY {"port": ...}`` and serves, with
``jobs=1``, until stdin closes.  It ends with one ``DONE`` line; a traced
job first writes its spans to the job's ``spans_path``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List

import harness
import spans
import specs


class ServiceTrace:
    """Service-layer spans and the per-request bookkeeping joins need.

    ``accepted`` and ``handoff`` hold, per cache key, when a run entered
    the queue and when the dispatcher handed it to ``run_batch``: their
    difference is the queue wait, where the dispatcher's linger lives.
    ``groups`` lists each ``run_batch`` call's keys; spans opened inside
    the call carry the group's index as context.
    """

    def __init__(self, recorder: spans.SpanRecorder) -> None:
        self.recorder = recorder
        self.accepted: Dict[str, float] = {}
        self.handoff: Dict[str, float] = {}
        self.groups: List[List[str]] = []
        self._key_of: Dict[int, str] = {}

    def patches(self) -> List[spans.Patch]:
        from repro.service import queue as queue_mod
        from repro.service.queue import ScenarioService
        from repro.service.server import ScenarioServer

        wrap = self.recorder.wrap
        return [
            (ScenarioService, "submit",
             wrap("service.submit", ScenarioService.submit,
                  self._submitted)),
            (queue_mod, "result_to_dict",
             wrap("service.serialize", queue_mod.result_to_dict)),
            (ScenarioServer, "_post_runs",
             wrap("service.post", ScenarioServer._post_runs)),
            (ScenarioServer, "_poll",
             wrap("service.poll", ScenarioServer._poll, self._polled)),
        ]

    def _submitted(self, span: spans.Span, args: tuple, result: Any) -> None:
        entry, created = result
        span.ctx = entry.key
        post = self.recorder.current()
        if post is not None:
            post.ctx = entry.key
        if created:
            self.accepted[entry.key] = span.end
            self._key_of[id(entry.request)] = entry.key

    def _polled(self, span: spans.Span, args: tuple, result: Any) -> None:
        server, key = args
        entry = server.service.get(key)
        span.ctx = key
        span.attrs = {"terminal": entry is not None and entry.terminal}

    def run_batch(self, run: Callable) -> Callable:
        """The service's public ``run_batch=`` hook, timed."""
        def traced(requests):
            group = len(self.groups)
            keys = [self._key_of[id(request)] for request in requests]
            self.groups.append(keys)
            start = perf_counter()
            for key in keys:
                self.handoff[key] = start
            span = self.recorder.open("service.run_batch", ctx=group)
            try:
                return run(requests)
            finally:
                self.recorder.close(span)
        return traced

    def dump(self) -> Dict[str, Any]:
        """Every span, flattened to JSON (parents by index)."""
        index = {id(span): number
                 for number, span in enumerate(self.recorder.spans)}
        rows = [[span.name, span.start, span.end,
                 index[id(span.parent)] if span.parent is not None else None,
                 span.ctx, span.attrs]
                for span in self.recorder.spans]
        return {"spans": rows, "counts": self.recorder.counts,
                "accepted": self.accepted, "handoff": self.handoff,
                "groups": self.groups}


async def serve(job: Dict[str, Any]) -> Dict[str, Any]:
    from repro.runner import ExperimentRunner, ResultCache
    from repro.service import ScenarioServer, ScenarioService
    from repro.service import request_from_spec

    harness.warm_up()
    cache = ResultCache(job["cache_dir"])
    ExperimentRunner(jobs=1, cache=cache).map(
        [request_from_spec(spec) for spec in job["pool"]])
    runner = ExperimentRunner(jobs=1, cache=cache)
    trace = ServiceTrace(spans.SpanRecorder()) if job["trace"] else None
    patches = (trace.patches() + spans.program_patches(trace.recorder)
               if trace else [])
    loop = asyncio.get_running_loop()
    with spans.patched(patches):
        service = ScenarioService(
            runner, run_batch=trace.run_batch(runner.map) if trace else None)
        server = ScenarioServer(service, host="127.0.0.1", port=0)
        await server.start()
        harness.announce("READY", {"port": server.port})
        await loop.run_in_executor(None, sys.stdin.readline)
        await server.close(drain=True)
    if trace is not None:
        Path(job["spans_path"]).write_text(json.dumps(trace.dump()),
                                           encoding="utf-8")
    return {"peak_rss_mb": harness.peak_rss_mb()}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("job", type=Path)
    args = parser.parse_args()
    specs.use_source_tree()
    job = json.loads(args.job.read_text(encoding="utf-8"))
    harness.announce("DONE", asyncio.run(serve(job)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
