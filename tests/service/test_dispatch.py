"""Group commit: the dispatcher hands work over as soon as it is idle.

A lone submission reaches ``run_batch`` without any wait, and runs
submitted while a group executes are dispatched together as the next
group, at most ``max_group`` at a time.
"""

from __future__ import annotations

import asyncio

from repro.service import DONE, QUEUED
from repro.service import queue as queue_mod

from .conftest import GatedExecutor, make_service, run_async, tiny_request


def test_lone_submission_dispatches_without_sleeping(tiny_result,
                                                     monkeypatch):
    sleeps = []
    real_sleep = asyncio.sleep

    async def recording_sleep(delay, *args, **kwargs):
        sleeps.append(delay)
        return await real_sleep(delay, *args, **kwargs)

    monkeypatch.setattr(queue_mod.asyncio, "sleep", recording_sleep)
    request = tiny_request(seed=50)

    async def scenario():
        executor = GatedExecutor(tiny_result)
        service = make_service(run_batch=executor)
        service.start()
        entry, created = service.submit(request)
        await asyncio.wait_for(entry.done.wait(), timeout=10.0)
        assert created and entry.status == DONE
        await service.shutdown()
        return executor.calls

    calls = run_async(scenario())
    assert sleeps == []
    assert calls == [[request]]


def test_runs_queued_behind_a_group_form_the_next_capped_group(
        tiny_result):
    requests = [tiny_request(seed=60 + offset) for offset in range(5)]

    async def scenario():
        executor = GatedExecutor(tiny_result)
        service = make_service(run_batch=executor, max_group=3)
        service.start()
        executor.hold()
        first, _ = service.submit(requests[0])
        while not executor.started.is_set():  # first is now in-flight
            await asyncio.sleep(0.001)
        queued = [service.submit(request)[0] for request in requests[1:]]
        assert all(entry.status == QUEUED for entry in queued)
        executor.release()
        for entry in (first, *queued):
            await asyncio.wait_for(entry.done.wait(), timeout=10.0)
            assert entry.status == DONE
        await service.shutdown()
        return executor.calls

    calls = run_async(scenario())
    assert calls == [requests[:1], requests[1:4], requests[4:]]
