"""Wire-level behaviour: routing, structured errors, keep-alive, limits.

Every error the server emits is the structured ``{"error": {"code",
"message"}}`` contract with a :class:`ReproError` subclass name as the
code — malformed input is a 4xx with a machine-readable reason, never a
500 with a traceback.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.service import ServiceClient

from .conftest import make_service, run_async, start_server


def _spec(seed: int = 1) -> dict:
    return {"scheme": "BaOnly", "workload": "WS",
            "setup": {"duration_h": 1.0 / 60.0, "seed": seed}}


async def _raw_exchange(host: str, port: int, payload: bytes) -> bytes:
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(payload)
    await writer.drain()
    response = await reader.read()
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass
    return response


def test_unknown_run_polls_as_structured_404():
    async def scenario():
        service = make_service()
        server = await start_server(service)
        client = ServiceClient(server.host, server.port)
        try:
            status, _, body = await client.poll("f" * 64)
            assert status == 404
            assert body["error"]["code"] == "UnknownRunError"
            assert body["key"] == "f" * 64
        finally:
            await client.close()
        await server.close()

    run_async(scenario())


def test_unroutable_requests_are_405_or_404():
    async def scenario():
        service = make_service()
        server = await start_server(service)
        client = ServiceClient(server.host, server.port)
        try:
            status, _, body = await client.request("GET", "/runs")
            assert status == 405
            assert body["error"]["code"] == "ProtocolError"
            status, _, body = await client.request("POST", "/stats")
            assert status == 405
            status, _, body = await client.request("GET", "/nope")
            assert status == 404
            assert body["error"]["code"] == "ProtocolError"
        finally:
            await client.close()
        await server.close()

    run_async(scenario())


def test_malformed_json_body_is_structured_400():
    async def scenario():
        service = make_service()
        server = await start_server(service)
        body = b"{not json"
        head = (f"POST /runs HTTP/1.1\r\nHost: x\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n").encode("latin-1")
        raw = await _raw_exchange(server.host, server.port, head + body)
        status_line, _, rest = raw.partition(b"\r\n")
        assert b"400" in status_line
        payload = json.loads(rest.split(b"\r\n\r\n", 1)[1])
        assert payload["error"]["code"] == "SpecError"
        await server.close()

    run_async(scenario())


def test_malformed_request_line_is_400_and_close():
    async def scenario():
        service = make_service()
        server = await start_server(service)
        raw = await _raw_exchange(server.host, server.port,
                                  b"NOT A VALID REQUEST\r\n\r\n")
        assert raw.startswith(b"HTTP/1.1 400")
        assert b"ProtocolError" in raw
        await server.close()

    run_async(scenario())


def test_oversized_body_is_rejected_not_read():
    async def scenario():
        service = make_service()
        server = await start_server(service)
        head = ("POST /runs HTTP/1.1\r\nHost: x\r\n"
                "Content-Length: 99999999\r\n\r\n").encode("latin-1")
        raw = await _raw_exchange(server.host, server.port, head)
        assert raw.startswith(b"HTTP/1.1 400")
        await server.close()

    run_async(scenario())


@pytest.mark.parametrize("raw_request, message", [
    (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
     b"request line too long"),
    (b"GET /stats HTTP/1.1\r\nX-Pad: " + b"a" * 70_000 + b"\r\n\r\n",
     b"request headers too large"),
], ids=["request-line", "header-line"])
def test_line_past_the_stream_limit_is_400_and_close(raw_request,
                                                      message):
    """A line longer than the 64 KiB StreamReader limit makes readline()
    raise; it must still get the structured 400, not a dropped socket."""

    async def scenario():
        service = make_service()
        server = await start_server(service)
        raw = await _raw_exchange(server.host, server.port, raw_request)
        assert raw.startswith(b"HTTP/1.1 400")
        assert b"ProtocolError" in raw and message in raw
        await server.close()

    run_async(scenario())


def _request_line_of(size: int) -> bytes:
    filler = size - len(b"GET / HTTP/1.1\r\n")
    return b"GET /" + b"a" * filler + b" HTTP/1.1\r\n"


def _post_with_length(length: bytes) -> bytes:
    return b"POST /runs HTTP/1.1\r\nContent-Length: " + length + b"\r\n\r\n"


@pytest.mark.parametrize("raw_request, message", [
    (_request_line_of(9_000) + b"\r\n", b"request line too long"),
    (b"GET /stats HTTP/1.1\r\n"
     + b"".join(b"X-Pad-%d: " % i + b"a" * 7_989 + b"\r\n"
                for i in range(5)) + b"\r\n",
     b"request headers too large"),
    (_post_with_length(b"1048577"),
     b"body of 1048577 bytes exceeds the 1048576-byte limit"),
    (_post_with_length(b"-1"), b"invalid Content-Length '-1'"),
    (_post_with_length(b"abc"), b"invalid Content-Length 'abc'"),
], ids=["request-line-9000", "five-8000-byte-headers", "body-over-limit",
        "negative-length", "non-numeric-length"])
def test_size_limits_get_their_own_400(raw_request, message):
    """Each size check of the wire parser (request line, total headers,
    body length) answers with its own structured 400, well below the
    64 KiB line limit of the stream reader."""

    async def scenario():
        service = make_service()
        server = await start_server(service)
        raw = await _raw_exchange(server.host, server.port, raw_request)
        assert raw.startswith(b"HTTP/1.1 400")
        assert b"ProtocolError" in raw and message in raw
        await server.close()

    run_async(scenario())


def test_keep_alive_serves_many_exchanges_on_one_connection():
    async def scenario():
        service = make_service()
        server = await start_server(service)
        client = ServiceClient(server.host, server.port)
        try:
            snapshot, _ = await client.submit_and_wait(_spec())
            stats = await client.stats()
            status, _, polled = await client.poll(snapshot["key"])
            assert status == 200 and polled["status"] == "done"
            # one TCP connection served submit + polls + stats
            assert client._writer is not None
            assert stats["submissions"] >= 1
            assert stats["accepting"] is True
            assert stats["runner"]["jobs"] == 1
            assert 0.0 <= stats["hit_rate"] <= 1.0
        finally:
            await client.close()
        await server.close()

    run_async(scenario())


def test_stats_counts_reflect_traffic():
    async def scenario():
        service = make_service()
        server = await start_server(service)
        client = ServiceClient(server.host, server.port)
        try:
            await client.submit_and_wait(_spec(seed=7))
            await client.submit_and_wait(_spec(seed=7))  # registry hit
            stats = await client.stats()
            assert stats["submissions"] == 2
            assert stats["executed"] == 1
            assert stats["hits"] == 1
            assert stats["hit_rate"] == 0.5
            assert stats["queue_depth"] == 0
        finally:
            await client.close()
        await server.close()

    run_async(scenario())
