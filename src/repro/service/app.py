"""The estimator service: dispatch core plus asyncio HTTP front end.

Layering mirrors the rest of the library -- pure logic first, I/O at
the edge:

* :class:`EstimatorService` is the transport-free core: one
  synchronous :meth:`~EstimatorService.dispatch` call maps (method,
  path, body) to a :class:`ServiceResponse`.  Tests drive it directly
  and compare bytes without opening a socket.
* :func:`serve` mounts the core on ``asyncio.start_server`` with a
  small hand-rolled HTTP/1.1 reader (stdlib only -- ``http.server``
  is threaded, not asyncio): request line, headers, ``Content-Length``
  body, keep-alive connections, and a read deadline per request
  (:data:`READ_TIMEOUT_S`) so a silent or stalled client cannot pin
  its connection.

Consistency under hot reload: a handler captures
``state.snapshot`` exactly once and computes the whole response from
that reference, so a ``/v1/reload`` landing mid-request can never mix
two database generations in one response.  The service is
single-process and single-loop; one event-loop turn owns the cache and
the journal bus, the same exactly-one-writer discipline as the
campaign parent (``docs/observability.md``).
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
from dataclasses import dataclass, field
from typing import Any

from repro.obs.bus import EventBus
from repro.obs.metrics import MetricsRegistry
from repro.runner.atomic import canonical_json
from repro.service.cache import ResponseCache, response_cache_key
from repro.service.schema import (
    RequestError,
    error_document,
    parse_request,
    render_batch,
)
from repro.service.state import ServiceState

__all__ = ["EstimatorService", "ServiceResponse", "serve"]

#: Reason phrases for the status codes the service emits.
_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 409: "Conflict",
            500: "Internal Server Error"}

#: Upper bound on request bodies (1 MiB): a batch of
#: :data:`~repro.service.schema.MAX_QUERIES` full queries fits with
#: room to spare, and an unbounded read would let one client exhaust
#: the process.
MAX_BODY_BYTES = 1 << 20

#: Seconds one request may take to arrive -- from the moment the server
#: starts waiting for it until the last byte of its body.  Generous for
#: any real client; a peer that connects and sends nothing, or stalls
#: mid-request, is disconnected when it expires.
READ_TIMEOUT_S = 30.0


def _render(doc: Any) -> bytes:
    """Canonical JSON + trailing newline -- every response body."""
    return canonical_json(doc).encode("utf-8") + b"\n"


@dataclass(frozen=True)
class ServiceResponse:
    """One fully rendered response, transport-independent.

    Attributes:
        status: HTTP status code.
        body: Rendered body bytes (canonical JSON + newline).
        headers: Extra headers (``Content-Type``/``Content-Length``
            are added by the HTTP writer).
    """

    status: int
    body: bytes
    headers: dict[str, str] = field(default_factory=dict)


class EstimatorService:
    """Transport-free request dispatcher over a :class:`ServiceState`.

    Args:
        state: The snapshot cell (database + estimator + etag).
        cache_size: Response-cache capacity (0 disables caching).
        bus: Optional :class:`~repro.obs.bus.EventBus`; when bound to
            a journal path it is flushed after every request, so the
            journal is current even if the process is killed.
        metrics: Optional :class:`~repro.obs.metrics.MetricsRegistry`
            receiving ``service.*`` counters.

    Attributes:
        state: The snapshot cell.
        cache: The content-addressed LRU response cache.
    """

    def __init__(self, state: ServiceState, cache_size: int = 1024,
                 bus: EventBus | None = None,
                 metrics: MetricsRegistry | None = None) -> None:
        self.state = state
        self.cache = ResponseCache(cache_size)
        self.bus = bus
        self.metrics = metrics

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def dispatch(self, method: str, path: str,
                 body: bytes) -> ServiceResponse:
        """Route one request and record its observability facts.

        Args:
            method: HTTP method (upper-case).
            path: Request path (query string already stripped).
            body: Raw request body.

        Returns:
            The rendered response; errors become named JSON error
            bodies, never raises.
        """
        queries = 0
        cached = False
        if path == "/v1/estimate" and method == "POST":
            response, queries, cached = self._estimate(body)
        elif path == "/v1/reload" and method == "POST":
            response = self._reload()
        elif path == "/v1/health" and method == "GET":
            response = self._health()
        elif path in ("/v1/estimate", "/v1/reload", "/v1/health"):
            allow = "GET" if path == "/v1/health" else "POST"
            response = ServiceResponse(
                405, _render(error_document(
                    "method-not-allowed",
                    f"{path} only accepts {allow}")),
                {"Allow": allow})
        else:
            response = ServiceResponse(
                404, _render(error_document(
                    "not-found",
                    f"unknown path {path!r}; endpoints: /v1/estimate, "
                    "/v1/reload, /v1/health")))
        if self.metrics is not None:
            self.metrics.inc("service.request")
        if self.bus is not None:
            self.bus.emit("service.request", method=method, path=path,
                          status=response.status, queries=queries,
                          cached=cached)
            self.bus.flush()
        return response

    def reject(self, reason: str) -> None:
        """Record a connection dropped without a dispatched request.

        The HTTP front end calls this when a request fails framing
        (``bad-request``, answered with a 400) or does not arrive
        within :data:`READ_TIMEOUT_S` (``read-timeout``, dropped
        unanswered); neither reaches :meth:`dispatch`, so without this
        the journal would not see them.
        """
        if self.metrics is not None:
            self.metrics.inc("service.reject")
        if self.bus is not None:
            self.bus.emit("service.reject", reason=reason)
            self.bus.flush()

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def _estimate(self, body: bytes,
                  ) -> tuple[ServiceResponse, int, bool]:
        """``POST /v1/estimate``: the batch query endpoint.

        Returns:
            ``(response, n_queries, served_from_cache)``.
        """
        snapshot = self.state.snapshot
        try:
            request = parse_request(body)
        except RequestError as exc:
            return self._request_error(exc), 0, False
        key = response_cache_key(snapshot.etag, request.canonical_body())
        headers = {"ETag": f'"{snapshot.etag}"'}
        entry = self.cache.get(key)
        if entry is not None:
            if self.metrics is not None:
                self.metrics.inc("service.cache_hit")
            if self.bus is not None:
                self.bus.emit("service.cache_hit", key=key)
            headers["X-Cache"] = "hit"
            return (ServiceResponse(200, entry, headers),
                    len(request.queries), True)
        if self.metrics is not None:
            self.metrics.inc("service.cache_miss")
        try:
            results = []
            for index, query in enumerate(request.queries):
                try:
                    fragments = snapshot.fragments(query.kind)
                except KeyError as exc:
                    raise RequestError(
                        "unknown-kind", str(exc.args[0]),
                        status=404) from exc
                try:
                    yield_fraction = snapshot.estimator.yield_for(
                        query.geometry, query.yield_fraction)
                except ValueError as exc:
                    # A valid but huge geometry whose Poisson yield
                    # underflows to 0.0.
                    raise RequestError(
                        "bad-yield",
                        f"queries[{index}]: the geometry's Poisson {exc}; "
                        "give a 'yield_fraction' in (0, 1]") from exc
                results.append(fragments.render(query, yield_fraction))
        except RequestError as exc:
            return self._request_error(exc), len(request.queries), False
        rendered = render_batch(snapshot.etag, results)
        self.cache.put(key, rendered)
        headers["X-Cache"] = "miss"
        return (ServiceResponse(200, rendered, headers),
                len(request.queries), False)

    def _reload(self) -> ServiceResponse:
        """``POST /v1/reload``: validate-then-swap the database."""
        result = self.state.reload()
        if self.metrics is not None:
            self.metrics.inc(f"service.reload.{result.outcome}")
        if self.bus is not None:
            data: dict[str, Any] = {"outcome": result.outcome,
                                    "etag": result.etag}
            if result.error is not None:
                data["error"] = result.error
            self.bus.emit("service.reload", **data)
        doc: dict[str, Any] = {"outcome": result.outcome,
                               "etag": result.etag}
        status = 200
        if result.outcome == "rejected":
            doc["error"] = result.error
            status = 409
        return ServiceResponse(status, _render(doc),
                               {"ETag": f'"{result.etag}"'})

    def _health(self) -> ServiceResponse:
        """``GET /v1/health``: liveness, identity and cache counters."""
        snapshot = self.state.snapshot
        doc = {
            "status": "ok",
            "etag": snapshot.etag,
            "generation": snapshot.generation,
            "records": len(snapshot.database),
            "kinds": snapshot.database.kinds(),
            "cache": self.cache.stats(),
        }
        return ServiceResponse(200, _render(doc),
                               {"ETag": f'"{snapshot.etag}"'})

    @staticmethod
    def _request_error(exc: RequestError) -> ServiceResponse:
        """Render a :class:`RequestError` as its named error response."""
        return ServiceResponse(
            exc.status, _render(error_document(exc.code, exc.detail)))


# ----------------------------------------------------------------------
# The asyncio HTTP/1.1 front end
# ----------------------------------------------------------------------
async def _read_request(reader: asyncio.StreamReader,
                        ) -> tuple[str, str, dict[str, str], bytes] | None:
    """Read one HTTP request; ``None`` at clean end-of-stream.

    Raises:
        ValueError: malformed request line, header, or a body larger
            than :data:`MAX_BODY_BYTES` (the connection handler turns
            this into a 400 and closes).
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ValueError("truncated request head") from exc
    except asyncio.LimitOverrunError as exc:
        raise ValueError("request head too large") from exc
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ValueError(f"malformed request line {lines[0]!r}")
    method, target, _version = parts
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ValueError(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError as exc:
        raise ValueError(
            f"bad Content-Length {length_text!r}") from exc
    if not 0 <= length <= MAX_BODY_BYTES:
        raise ValueError(
            f"Content-Length {length} outside [0, {MAX_BODY_BYTES}]")
    body = await reader.readexactly(length) if length else b""
    return method.upper(), target, headers, body


async def _write_response(writer: asyncio.StreamWriter,
                          response: ServiceResponse,
                          close: bool) -> None:
    """Serialise one response (Content-Length framing, keep-alive)."""
    reason = _REASONS.get(response.status, "Unknown")
    head = [f"HTTP/1.1 {response.status} {reason}",
            "Content-Type: application/json",
            f"Content-Length: {len(response.body)}",
            f"Connection: {'close' if close else 'keep-alive'}"]
    head.extend(f"{name}: {value}"
                for name, value in response.headers.items())
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
    writer.write(response.body)
    await writer.drain()


async def _handle_connection(service: EstimatorService,
                             reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
    """Serve one keep-alive connection until EOF, error, close or a
    request that does not arrive within :data:`READ_TIMEOUT_S`."""
    try:
        while True:
            try:
                request = await asyncio.wait_for(_read_request(reader),
                                                 READ_TIMEOUT_S)
            except asyncio.TimeoutError:
                # Silent or stalled client: drop the connection.
                service.reject("read-timeout")
                break
            except ValueError as exc:
                service.reject("bad-request")
                bad = ServiceResponse(
                    400, _render(error_document("bad-request", str(exc))))
                await _write_response(writer, bad, close=True)
                break
            if request is None:
                break
            method, target, headers, body = request
            path = target.partition("?")[0]
            response = service.dispatch(method, path, body)
            close = headers.get("connection", "").lower() == "close"
            await _write_response(writer, response, close)
            if close:
                break
    except (ConnectionError, asyncio.IncompleteReadError):
        pass  # client went away mid-exchange; nothing to answer
    except asyncio.CancelledError:
        pass  # server shutdown while idle-reading; close the socket
    finally:
        writer.close()
        # Shutdown may cancel the handler here too.  A handler task that
        # ends cancelled makes asyncio's connection callback report a
        # CancelledError traceback, so this cancellation ends here too.
        with contextlib.suppress(Exception, asyncio.CancelledError):
            await writer.wait_closed()


async def serve(service: EstimatorService, host: str = "127.0.0.1",
                port: int = 0) -> asyncio.AbstractServer:
    """Bind the service to a listening socket.

    Args:
        service: The dispatch core.
        host: Bind address (loopback by default -- the service is an
            internal tool, not an internet face).
        port: TCP port; 0 picks an ephemeral one (read it back from
            ``server.sockets[0].getsockname()[1]``).

    Returns:
        The started :class:`asyncio.AbstractServer`; the caller owns
        its lifecycle (``serve_forever`` / ``close``).
    """
    return await asyncio.start_server(
        functools.partial(_handle_connection, service), host, port)
