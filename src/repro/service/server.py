"""Scenario-as-a-service: the asyncio HTTP/1.1 wire layer.

A deliberately small, dependency-free HTTP server over
``asyncio.start_server`` — request line + headers + ``Content-Length``
bodies in, JSON out, keep-alive connections, chunked transfer encoding
for the progress stream.  All simulation semantics live in
:class:`~repro.service.queue.ScenarioService`; this module only parses
bytes and shapes responses.

Endpoints::

    POST /runs                submit a run spec        -> 202 / 200 / 400 / 429 / 503
    GET  /runs/{key}          poll status + result     -> 200 / 404
    GET  /runs/{key}/stream   chunked JSON-lines progress
    GET  /stats               cache/queue/hit-rate counters

Error responses are structured: ``{"error": {"code": <ReproError
subclass name>, "message": ...}}`` — a malformed spec is a 400 with a
code, never a 500 with a traceback.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Optional, Tuple

from ..errors import (
    ProtocolError,
    QueueFullError,
    ReproError,
    ServiceShutdownError,
    SpecError,
    UnknownRunError,
)
from ..runner import ExperimentRunner
from .protocol import error_payload, request_from_spec
from .queue import RunEntry, ScenarioService

#: Hard limits on what one request may send (DoS hygiene, not tuning).
MAX_REQUEST_LINE_BYTES = 8192
MAX_HEADER_BYTES = 32768
MAX_BODY_BYTES = 1_048_576

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}


class _HttpRequest:
    """One parsed request: method, path, headers, body bytes."""

    __slots__ = ("method", "path", "headers", "body")

    def __init__(self, method: str, path: str,
                 headers: Dict[str, str], body: bytes) -> None:
        self.method = method
        self.path = path
        self.headers = headers
        self.body = body

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "keep-alive") != "close"


async def _read_request(reader: asyncio.StreamReader
                        ) -> Optional[_HttpRequest]:
    """Parse one HTTP/1.1 request; None on a cleanly closed connection.

    Raises:
        ProtocolError: On a malformed or over-long request line,
            oversized headers, or a body exceeding
            :data:`MAX_BODY_BYTES`.
    """
    try:
        line = await reader.readline()
    except ConnectionError:
        return None
    except ValueError:
        # readline() reports a line longer than the reader's buffer
        # limit (64 KiB by default) as ValueError.
        raise ProtocolError("request line too long") from None
    if not line:
        return None
    if len(line) > MAX_REQUEST_LINE_BYTES:
        raise ProtocolError("request line too long")
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise ProtocolError(f"malformed request line: {line!r:.80}")
    method, path = parts[0].upper(), parts[1]

    headers: Dict[str, str] = {}
    header_bytes = 0
    while True:
        try:
            raw = await reader.readline()
        except ValueError:
            raise ProtocolError("request headers too large") from None
        header_bytes += len(raw)
        if header_bytes > MAX_HEADER_BYTES:
            raise ProtocolError("request headers too large")
        if raw in (b"\r\n", b"\n", b""):
            break
        name, _, value = raw.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip().lower()

    body = b""
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        length = -1
    if length < 0:
        raise ProtocolError(f"invalid Content-Length {length_text!r}")
    if length > MAX_BODY_BYTES:
        raise ProtocolError(f"body of {length} bytes exceeds the "
                            f"{MAX_BODY_BYTES}-byte limit")
    if length:
        body = await reader.readexactly(length)
    return _HttpRequest(method, path, headers, body)


def _encode_response(status: int, payload: Dict[str, Any],
                     extra_headers: Tuple[Tuple[str, str], ...] = (),
                     keep_alive: bool = True) -> bytes:
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    lines.extend(f"{name}: {value}" for name, value in extra_headers)
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + body


class ScenarioServer:
    """Binds a :class:`ScenarioService` to a TCP listener.

    Usage::

        service = ScenarioService(runner)
        server = ScenarioServer(service, host="127.0.0.1", port=0)
        await server.start()          # service dispatch loop + listener
        ...
        await server.close()          # graceful: drains accepted runs
    """

    def __init__(self, service: ScenarioService,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> None:
        self.service.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        sockets = self._server.sockets or ()
        if sockets:
            self.port = sockets[0].getsockname()[1]

    async def close(self, drain: bool = True) -> None:
        """Stop listening, then settle every accepted run (see service)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.shutdown(drain=drain)

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    request = await _read_request(reader)
                except ProtocolError as error:
                    writer.write(_encode_response(
                        400, error_payload(error), keep_alive=False))
                    await writer.drain()
                    break
                except asyncio.IncompleteReadError:
                    break
                if request is None:
                    break
                keep_alive = await self._route(request, writer)
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass  # client went away mid-exchange; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _route(self, request: _HttpRequest,
                     writer: asyncio.StreamWriter) -> bool:
        """Dispatch one request; returns whether to keep the connection."""
        method, path = request.method, request.path
        if path == "/runs" and method == "POST":
            writer.write(self._post_runs(request))
            return request.keep_alive
        if path == "/stats" and method == "GET":
            writer.write(_encode_response(200, self.service.stats()))
            return request.keep_alive
        if path.startswith("/runs/") and method == "GET":
            key = path[len("/runs/"):]
            if key.endswith("/stream"):
                return await self._stream(request, key[:-len("/stream")],
                                          writer)
            writer.write(self._poll(key))
            return request.keep_alive
        error: ReproError = ProtocolError(
            f"no route for {method} {path}")
        status = 405 if path in ("/runs", "/stats") else 404
        writer.write(_encode_response(status, error_payload(error),
                                      keep_alive=request.keep_alive))
        return request.keep_alive

    # -- POST /runs -----------------------------------------------------

    def _post_runs(self, request: _HttpRequest) -> bytes:
        try:
            try:
                payload = json.loads(request.body.decode("utf-8"))
            except (ValueError, UnicodeDecodeError) as error:
                raise SpecError(
                    f"request body is not valid JSON: {error}") from error
            run_request = request_from_spec(payload)
        except ReproError as error:
            # SpecError, FaultSpecError, ConfigurationError, ...: the
            # structured 400 contract — never a traceback.
            return _encode_response(400, error_payload(error),
                                    keep_alive=request.keep_alive)
        try:
            entry, created = self.service.submit(run_request)
        except QueueFullError as error:
            retry_after = max(1, round(error.retry_after_s))
            return _encode_response(
                429, error_payload(error),
                extra_headers=(("Retry-After", str(retry_after)),),
                keep_alive=request.keep_alive)
        except ServiceShutdownError as error:
            return _encode_response(503, error_payload(error),
                                    keep_alive=False)
        status = 202 if created else 200
        return _encode_response(status,
                                entry.snapshot(include_result=False),
                                keep_alive=request.keep_alive)

    # -- GET /runs/{key} ------------------------------------------------

    def _poll(self, key: str) -> bytes:
        entry = self.service.get(key)
        if entry is None:
            error = UnknownRunError(
                f"no run with key {key!r}; submit it via POST /runs")
            return _encode_response(404, error_payload(error, key=key))
        return _encode_response(200, entry.snapshot())

    # -- GET /runs/{key}/stream -----------------------------------------

    async def _stream(self, request: _HttpRequest, key: str,
                      writer: asyncio.StreamWriter) -> bool:
        entry = self.service.get(key)
        if entry is None:
            error = UnknownRunError(
                f"no run with key {key!r}; submit it via POST /runs")
            writer.write(_encode_response(404, error_payload(error,
                                                             key=key)))
            return request.keep_alive
        self.service.metrics.streamed += 1
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Transfer-Encoding: chunked\r\n"
            "Connection: close\r\n\r\n"
        ).encode("latin-1")
        writer.write(head)
        last_status: Optional[str] = None
        while True:
            event = self.service.change_event
            if entry.status != last_status:
                last_status = entry.status
                line = json.dumps(entry.snapshot(), sort_keys=True)
                chunk = line.encode("utf-8") + b"\n"
                writer.write(f"{len(chunk):x}\r\n".encode("latin-1")
                             + chunk + b"\r\n")
                await writer.drain()
            if entry.terminal:
                break
            await event.wait()
        writer.write(b"0\r\n\r\n")
        await writer.drain()
        # Chunked responses end the exchange; close so simple clients
        # need no chunked keep-alive bookkeeping.
        return False


async def serve(runner: ExperimentRunner, host: str = "127.0.0.1",
                port: int = 8421, max_queue: int = 256,
                max_group: int = 64) -> None:
    """Run the service until cancelled; drains accepted runs on exit."""
    service = ScenarioService(runner, max_queue=max_queue,
                              max_group=max_group)
    server = ScenarioServer(service, host=host, port=port)
    await server.start()
    print(f"repro service listening on http://{server.host}:{server.port}"
          f" (queue={max_queue}, jobs={runner.effective_jobs})")
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass  # normal shutdown path (Ctrl-C in the CLI wrapper)
    finally:
        await server.close(drain=True)


__all__ = [
    "MAX_BODY_BYTES",
    "ScenarioServer",
    "serve",
]
