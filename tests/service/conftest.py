"""Shared fixtures for the scenario-service suite.

The concurrency tests want execution to be *controllable*, not fast or
real: :class:`GatedExecutor` stands in for ``runner.map`` so a test can
hold runs in-flight while it forces interleavings (concurrent identical
submissions, queue overflow, shutdown under load) and then release
them.  It returns a genuine :class:`RunResult` (simulated once per
session) so everything downstream — serialization, snapshots, streams —
exercises the real formats.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Callable, List, Optional, Sequence

import pytest

from repro.runner import (
    ExperimentRunner,
    ExperimentSetup,
    RunRequest,
    execute_request,
)
from repro.service import ScenarioServer, ScenarioService
from repro.sim import RunResult

#: A tiny, fast request the suite reuses everywhere (60 simulated
#: seconds on the six-server prototype).
TINY_SETUP = ExperimentSetup(duration_h=1.0 / 60.0, seed=1)


def tiny_request(seed: int = 1, workload: str = "WS",
                 scheme: str = "BaOnly", **overrides) -> RunRequest:
    """A cheap request; vary ``seed`` to get distinct cache keys."""
    setup = ExperimentSetup(duration_h=1.0 / 60.0, seed=seed, **overrides)
    return RunRequest(scheme=scheme, workload=workload, setup=setup)


@pytest.fixture(scope="session")
def tiny_result() -> RunResult:
    """One real simulated result, reused as the stub executor's answer."""
    return execute_request(tiny_request())


class GatedExecutor:
    """A ``run_batch`` stand-in with a hold gate and an execution log.

    ``calls`` records every dispatched request batch; ``executions``
    counts individual requests executed.  While ``hold()`` is in effect
    the executor blocks its worker thread (runs stay in-flight), which
    is how tests force the check-then-act interleavings the dedup and
    shutdown invariants must survive.
    """

    def __init__(self, result: RunResult,
                 fail_with: Optional[Exception] = None) -> None:
        self._result = result
        self._gate = threading.Event()
        self._gate.set()
        self._fail_with = fail_with
        self.calls: List[List[RunRequest]] = []
        self.started = threading.Event()

    def hold(self) -> None:
        self._gate.clear()

    def release(self) -> None:
        self._gate.set()

    @property
    def executions(self) -> int:
        return sum(len(call) for call in self.calls)

    def __call__(self, requests: Sequence[RunRequest]) -> List[RunResult]:
        self.started.set()
        assert self._gate.wait(timeout=30.0), "gate never released"
        if self._fail_with is not None:
            raise self._fail_with
        self.calls.append(list(requests))
        return [self._result] * len(requests)


def make_service(run_batch: Optional[Callable] = None,
                 cache=None, **kwargs) -> ScenarioService:
    """A service over a serial cacheless runner (behaviour-test rig)."""
    runner = ExperimentRunner(jobs=1, cache=cache)
    return ScenarioService(runner, run_batch=run_batch, **kwargs)


async def start_server(service: ScenarioService) -> ScenarioServer:
    server = ScenarioServer(service, host="127.0.0.1", port=0)
    await server.start()
    return server


def run_async(coro, timeout_s: float = 30.0):
    """Run a test scenario with a hang guard (shutdown tests rely on it)."""

    async def guarded():
        return await asyncio.wait_for(coro, timeout=timeout_s)

    return asyncio.run(guarded())
