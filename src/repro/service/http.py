"""Minimal asyncio HTTP/1.1 layer over :class:`SimulationService`.

Hand-rolled on ``asyncio.start_server`` — the service must run on the
bare Python toolchain, so no web framework.  JSON in, JSON out, four
routes::

    POST /simulate   one request spec -> seismograms + provenance
    POST /warm       {"requests": [spec, ...]} -> provenance only
    GET  /stats      service counter / latency snapshot
    GET  /healthz    liveness probe

A ``/simulate`` body is the :meth:`~repro.service.keys
.SimulationRequest.from_spec` wire format; pass ``"include_data":
false`` in the body to get provenance without the (large) seismogram
payload.  Typed failures map to status codes — malformed requests to
400, *transient* backend exhaustion (rank timeouts, lost ranks: a retry
may succeed) to 503 with a Retry-After header, deterministic backend
failures to 502 — and anything truly unexpected propagates (the asyncio
task logs it) rather than being silently swallowed.
"""

from __future__ import annotations

import asyncio
import http.client
import json
from typing import Any

from ..config.parameters import ConfigError
from .frontend import (
    BackendError,
    BadRequestError,
    SimulationService,
    TransientBackendError,
)
from .keys import SimulationRequest

__all__ = ["ServiceHTTPServer", "http_json"]

#: Largest accepted request body; a station list is small, this is for
#: warm batches.
MAX_BODY_BYTES = 16 * 1024 * 1024

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    502: "Bad Gateway",
    503: "Service Unavailable",
}

#: Retry-After answered with a 503 (transient backend exhaustion).
RETRY_AFTER_S = 5

#: Failure types the HTTP boundary converts to a 400 rather than a
#: connection-killing traceback.  Deliberately a typed tuple, not a
#: broad except: unexpected bugs should surface loudly (R5).
_CLIENT_ERRORS = (
    BadRequestError,
    ConfigError,  # ParameterError is a ConfigError
    json.JSONDecodeError,
    KeyError,
    TypeError,
    ValueError,
)


async def _read_http_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, dict[str, str], bytes] | None:
    """Parse one request off the stream; None on a cleanly closed pipe."""
    try:
        request_line = await reader.readline()
    except (ConnectionError, asyncio.IncompleteReadError):
        return None
    if not request_line or not request_line.strip():
        return None
    parts = request_line.decode("latin-1").strip().split()
    if len(parts) != 3:
        raise BadRequestError(
            f"malformed request line: {request_line!r}"
        )
    method, target, _version = parts
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if not line or line in (b"\r\n", b"\n"):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError as exc:
        raise BadRequestError(
            f"bad Content-Length: {headers.get('content-length')!r}"
        ) from exc
    if length < 0 or length > MAX_BODY_BYTES:
        raise BadRequestError(f"body of {length} bytes refused")
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except (ConnectionError, asyncio.IncompleteReadError):
            return None
    return method.upper(), target, headers, body


class ServiceHTTPServer:
    """The service's front door: a keep-alive JSON-over-HTTP listener.

    ``defaults`` are Par_file-style keys underlying every request's
    ``params`` (the operator pins the deployment's resolution once;
    clients override per request).  ``port=0`` binds an ephemeral port,
    published on ``self.port`` after :meth:`start` — which is what the
    tests and the CI load-smoke use.
    """

    def __init__(
        self,
        service: SimulationService,
        host: str = "127.0.0.1",
        port: int = 0,
        defaults: dict[str, Any] | None = None,
    ):
        self.service = service
        self.host = host
        self.port = port
        self.defaults = dict(defaults or {})
        self._server: asyncio.AbstractServer | None = None
        #: Live connection handlers, which :meth:`stop` finishes.
        self._handlers: set[asyncio.Task] = set()

    async def start(self) -> "ServiceHTTPServer":
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop listening, then cancel and await every connection handler.

        ``wait_closed`` alone returns while a keep-alive handler still
        waits for its client's next request; left pending, the loop's
        teardown destroys it mid-await."""
        if self._server is not None:
            self._server.close()
            handlers = list(self._handlers)
            for task in handlers:
                task.cancel()
            await asyncio.gather(*handlers, return_exceptions=True)
            await self._server.wait_closed()
            self._server = None

    # -- connection handling ------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._handlers.add(task)
        try:
            while True:
                try:
                    parsed = await _read_http_request(reader)
                except BadRequestError as exc:
                    await self._send(writer, 400, {"error": str(exc)})
                    break
                if parsed is None:
                    break
                method, target, headers, body = parsed
                status, payload = await self._dispatch(method, target, body)
                await self._send(writer, status, payload)
                if headers.get("connection", "").lower() == "close":
                    break
        except (ConnectionError, OSError, asyncio.CancelledError):
            # The peer vanished mid-response, or this server's stop()
            # cancelled its own handler and reads no result from it; let
            # out, the cancellation is logged by the stream's done-callback.
            pass
        finally:
            self._handlers.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                # Nothing follows this await; a teardown-time cancel or
                # reset here is the connection ending either way.
                pass

    async def _send(
        self, writer: asyncio.StreamWriter, status: int, payload: Any
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        retry_after = (
            f"Retry-After: {RETRY_AFTER_S}\r\n" if status == 503 else ""
        )
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Error')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{retry_after}"
            f"Connection: keep-alive\r\n"
            f"\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    # -- routes -------------------------------------------------------------

    async def _dispatch(
        self, method: str, target: str, body: bytes
    ) -> tuple[int, Any]:
        path = target.split("?", 1)[0]
        try:
            if method == "GET" and path == "/healthz":
                return 200, {"ok": True}
            if method == "GET" and path == "/stats":
                return 200, self.service.stats()
            if method == "POST" and path == "/simulate":
                return await self._simulate(body)
            if method == "POST" and path == "/warm":
                return await self._warm(body)
            return 404, {"error": f"no route {method} {path}"}
        except TransientBackendError as exc:
            # Retry-worthy exhaustion: same request may succeed later.
            return 503, {
                "error": str(exc),
                "failure_class": exc.failure_class,
                "retry_after_s": RETRY_AFTER_S,
            }
        except BackendError as exc:
            return 502, {
                "error": str(exc),
                "failure_class": exc.failure_class,
            }
        except _CLIENT_ERRORS as exc:
            return 400, {"error": f"{type(exc).__name__}: {exc}"}

    async def _simulate(self, body: bytes) -> tuple[int, Any]:
        spec = json.loads(body.decode("utf-8") or "{}")
        if not isinstance(spec, dict):
            raise BadRequestError("request body must be a JSON object")
        include_data = bool(spec.pop("include_data", True))
        request = SimulationRequest.from_spec(spec, defaults=self.defaults)
        response = await self.service.handle(request)
        return 200, response.to_dict(include_data=include_data)

    async def _warm(self, body: bytes) -> tuple[int, Any]:
        spec = json.loads(body.decode("utf-8") or "{}")
        if not isinstance(spec, dict) or not isinstance(
            spec.get("requests"), list
        ):
            raise BadRequestError(
                'warm body must be {"requests": [spec, ...]}'
            )
        requests = [
            SimulationRequest.from_spec(s, defaults=self.defaults)
            for s in spec["requests"]
        ]
        responses = await self.service.warm(requests)
        return 200, {
            "warmed": [r.to_dict(include_data=False) for r in responses]
        }


def http_json(
    host: str,
    port: int,
    method: str,
    path: str,
    payload: Any | None = None,
    timeout_s: float = 120.0,
) -> tuple[int, Any]:
    """Blocking JSON request helper (the CLI's and benchmarks' client)."""
    conn = http.client.HTTPConnection(host, port, timeout=timeout_s)
    try:
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        conn.request(method, path, body=body, headers=headers)
        resp = conn.getresponse()
        raw = resp.read()
        return resp.status, json.loads(raw.decode("utf-8")) if raw else None
    finally:
        conn.close()
