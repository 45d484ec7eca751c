"""Fault-carrying submissions: bit-exact, never a 500.

A spec with a fault schedule must return exactly the bytes a direct
in-process :func:`execute_request` produces, whichever engine its
dispatch group takes; a malformed schedule is a structured 400 with
``FaultSpecError`` as the code.
"""

from __future__ import annotations

from repro.errors import FaultSpecError
from repro.runner import execute_request
from repro.service import ServiceClient, request_from_spec
from repro.sim.results import result_to_dict

import pytest

from .conftest import make_service, run_async, start_server

FAULTED_SPEC = {
    "scheme": "HEB-D",
    "workload": "PR",
    "setup": {"duration_h": 1.0 / 60.0, "seed": 3},
    "faults": {
        "seed": 7,
        "events": [
            {"kind": "outage", "start_s": 10.0, "duration_s": 20.0},
        ],
    },
}


def test_faulted_run_matches_scalar_execution_bit_exactly():
    async def scenario():
        service = make_service()  # real runner (batch engine enabled)
        server = await start_server(service)
        client = ServiceClient(server.host, server.port)
        try:
            snapshot, _ = await client.submit_and_wait(FAULTED_SPEC)
            assert snapshot["status"] == "done"
            served = snapshot["result"]
        finally:
            await client.close()
        await server.close()
        return served

    served = run_async(scenario())
    direct = result_to_dict(execute_request(
        request_from_spec(FAULTED_SPEC)))
    assert served == direct
    assert "fault_downtime_s" in served["metrics"]


@pytest.mark.parametrize("faults, code", [
    ("stormy", "SpecError"),  # not an object
    ({"events": [{"kind": "sharknado", "start_s": 0.0,
                  "duration_s": 1.0}]}, "FaultSpecError"),
    ({"events": [{"kind": "outage"}]}, "FaultSpecError"),
    ({"events": "outage"}, "FaultSpecError"),
])
def test_malformed_fault_schedule_is_structured_400(faults, code):
    async def scenario():
        service = make_service()
        server = await start_server(service)
        client = ServiceClient(server.host, server.port)
        try:
            spec = dict(FAULTED_SPEC, faults=faults)
            status, _, body = await client.submit(spec)
            assert status == 400
            assert body["error"]["code"] == code
            assert "message" in body["error"]
            assert service.metrics.submissions == 0  # rejected pre-queue
        finally:
            await client.close()
        await server.close()

    run_async(scenario())
