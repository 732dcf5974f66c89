"""The HTTP shell shared by ``repro serve`` and ``repro route``.

Both services speak a deliberately minimal HTTP/1.1 subset over
``asyncio`` streams (keep-alive, ``Content-Length`` framing only) — the
stdlib has no asyncio HTTP server and these services need exactly this
much.  This module owns everything the two do the same way:

* :func:`read_request` — one request off the wire, refused with a typed
  status when malformed (400), when its body is too large (413), or when
  a request/header line or the header count exceeds its limit (431);
* :func:`encode_response` — the one response encoder, for JSON payloads,
  :class:`TextPayload` (Prometheus text) and raw bytes forwarded from a
  replica;
* :class:`HttpService` — listener lifecycle, the keep-alive connection
  loop, and the request skeleton: endpoint classification, request-id
  validation or minting, method checks, error mapping, the
  ``<prefix>.requests`` / ``.responses`` / ``.latency_ms`` metrics, the
  flight recorder behind ``/debug/*``, and the SLO burn gauges;
* :func:`run_service` — the signal-handling ``asyncio.run`` loop behind
  ``repro serve`` and ``repro route``.
"""

from __future__ import annotations

import asyncio
import json
import signal
import time
import uuid
from dataclasses import dataclass

from .. import __version__
from ..obs import FlightRecorder, get_logger, get_registry
from ..obs.export import PROMETHEUS_CONTENT_TYPE
from .protocol import MAX_BODY_BYTES, ProtocolError, error_payload, validate_request_id

__all__ = [
    "HttpService",
    "TextPayload",
    "encode_response",
    "read_request",
    "run_service",
]

logger = get_logger("serve.http")

POST_ROUTES = ("/v1/partition", "/v1/simulate")
GET_ROUTES = ("/healthz", "/metrics", "/debug/requests", "/debug/inflight")
DEBUG_REQUEST_PREFIX = "/debug/requests/"

#: Longest request line or header line (the stream reader's buffer limit).
MAX_LINE_BYTES = 65536
#: Most header lines one request may carry.
MAX_HEADER_LINES = 100

STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class HttpError(Exception):
    """A request refused while reading it; the connection closes after."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


async def read_request(reader: asyncio.StreamReader):
    """One HTTP/1.1 request → ``(method, path, headers, body)``.

    Returns ``None`` on a clean EOF before the request line (keep-alive
    connection closed by the peer).
    """
    try:
        line = await reader.readline()
    except ValueError:  # the line overran the reader's buffer limit
        raise HttpError(431, f"request line exceeds {MAX_LINE_BYTES} bytes") from None
    if not line:
        return None
    try:
        method, path, _version = line.decode("latin-1").rstrip("\r\n").split(" ", 2)
    except ValueError:
        raise HttpError(400, "malformed request line") from None
    headers: dict[str, str] = {}
    for _ in range(MAX_HEADER_LINES + 1):
        try:
            raw = await reader.readline()
        except ValueError:
            raise HttpError(431, f"header line exceeds {MAX_LINE_BYTES} bytes") from None
        if raw in (b"\r\n", b"\n"):
            break
        if not raw:
            raise HttpError(400, "truncated headers")
        name, sep, value = raw.decode("latin-1").partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line {raw!r}")
        headers[name.strip().lower()] = value.strip()
    else:
        raise HttpError(431, f"more than {MAX_HEADER_LINES} header lines")
    body = b""
    length = headers.get("content-length")
    if length is not None:
        try:
            n = int(length)
        except ValueError:
            raise HttpError(400, "malformed Content-Length") from None
        if n < 0:
            raise HttpError(400, "negative Content-Length")
        if n > MAX_BODY_BYTES:
            raise HttpError(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
        body = await reader.readexactly(n)
    elif headers.get("transfer-encoding"):
        raise HttpError(400, "chunked request bodies are not supported")
    return method, path.split("?", 1)[0], headers, body


@dataclass(frozen=True)
class TextPayload:
    """A non-JSON response body (Prometheus text exposition)."""

    text: str
    content_type: str = PROMETHEUS_CONTENT_TYPE


def encode_response(
    status: int,
    payload,
    *,
    server: str,
    keep_alive: bool,
    extra_headers: dict[str, str] | None = None,
) -> bytes:
    """One complete HTTP/1.1 response.

    ``payload`` is a JSON-serialisable object, a :class:`TextPayload`, or
    raw bytes sent verbatim; raw bytes take their type from a
    ``Content-Type`` entry of ``extra_headers`` (default JSON).
    """
    headers = dict(extra_headers or {})
    if isinstance(payload, (bytes, bytearray)):
        body = bytes(payload)
        content_type = headers.pop("Content-Type", "application/json")
    elif isinstance(payload, TextPayload):
        body, content_type = payload.text.encode("utf-8"), payload.content_type
    else:
        body = json.dumps(payload, indent=2).encode("utf-8") + b"\n"
        content_type = "application/json"
    lines = [
        f"HTTP/1.1 {status} {STATUS_TEXT.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Server: {server}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    lines.extend(f"{name}: {value}" for name, value in headers.items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


class HttpService:
    """What ``repro serve`` and ``repro route`` share: listener, loop, skeleton.

    A subclass sets :attr:`prefix` and implements :meth:`start` (calling
    :meth:`_listen`), :meth:`_post` (the compute endpoints),
    :meth:`_healthz` and :meth:`_metrics_response`; it may extend
    :meth:`_drain`, :meth:`_debug_request` and :meth:`_flight_trace`.
    ``config`` needs ``host``, ``port``, ``port_file``,
    ``flight_capacity``, ``slo_p99_ms`` and ``slo_error_rate``.
    """

    #: Metric prefix (``serve.requests``) and ``Server: repro-<prefix>`` name.
    prefix = "serve"

    def __init__(self, config):
        self.config = config
        self.port: int | None = None
        self.started_at: float | None = None
        self._server: asyncio.base_events.Server | None = None
        self._metrics = get_registry()
        self._flight = FlightRecorder(max(config.flight_capacity, 1))
        self._admitted = 0  # computations (or forwards) queued or running
        self._tasks: list[asyncio.Task] = []  # cancelled on shutdown
        self._shutdown_event: asyncio.Event | None = None
        self._draining = False
        self._requests_served = 0

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    async def _listen(self) -> None:
        """Bind the listener; write the bound port to ``port_file``."""
        self._shutdown_event = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.config.host,
            self.config.port,
            limit=MAX_LINE_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.started_at = time.monotonic()
        if self.config.port_file:
            with open(self.config.port_file, "w", encoding="utf-8") as fh:
                fh.write(f"{self.port}\n")

    def signal_shutdown(self) -> None:
        """Begin graceful drain (call from within the event loop)."""
        if self._shutdown_event is not None:
            self._shutdown_event.set()

    async def serve_until_shutdown(self) -> None:
        assert self._shutdown_event is not None, "start() first"
        await self._shutdown_event.wait()
        await self.shutdown()

    async def shutdown(self) -> None:
        """Stop background tasks and the listener, then :meth:`_drain`."""
        if self._server is None:
            return
        self._draining = True
        for task in self._tasks:
            task.cancel()
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._tasks.clear()
        self._server.close()
        await self._server.wait_closed()
        self._server = None
        await self._drain()
        logger.info("%s drained; %d requests served", self.prefix, self._requests_served)

    async def _drain(self) -> None:
        """Finish in-flight work and release resources (listener closed)."""

    # -- connection handling ---------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        server = f"repro-{self.prefix}/{__version__}"
        try:
            while True:
                try:
                    parsed = await asyncio.wait_for(read_request(reader), timeout=60.0)
                except asyncio.TimeoutError:
                    break  # idle keep-alive connection
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                except HttpError as e:
                    payload = error_payload("invalid-request", str(e))
                    writer.write(
                        encode_response(e.status, payload, server=server, keep_alive=False)
                    )
                    await writer.drain()
                    break
                if parsed is None:
                    break
                method, path, headers, body = parsed
                keep_alive = headers.get("connection", "keep-alive").lower() != "close"
                status, payload, extra = await self._route(method, path, headers, body)
                writer.write(
                    encode_response(
                        status, payload, server=server,
                        keep_alive=keep_alive, extra_headers=extra,
                    )
                )
                await writer.drain()
                self._requests_served += 1
                if not keep_alive:
                    break
        except ConnectionError:  # peer vanished mid-response
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:  # pragma: no cover
                pass

    # -- routing ---------------------------------------------------------
    async def _route(self, method: str, path: str, headers: dict[str, str], body: bytes):
        """Dispatch one request; returns ``(status, payload, extra_headers)``.

        Compute requests open a flight record once their method is
        checked, so a 405 leaves none.
        """
        if path.startswith(DEBUG_REQUEST_PREFIX):
            endpoint = "/debug/requests/<id>"
        else:
            endpoint = path if path in POST_ROUTES + GET_ROUTES else "other"
        self._metrics.counter(f"{self.prefix}.requests", endpoint=endpoint).inc()
        t0 = time.perf_counter()
        extra: dict[str, str] = {}
        record = meta = error_code = None
        try:
            request_id = validate_request_id(headers.get("x-repro-request-id"))
            if request_id is None:
                request_id = uuid.uuid4().hex[:16]
            extra["X-Repro-Request-Id"] = request_id
            if path in POST_ROUTES:
                if method != "POST":
                    raise ProtocolError(
                        f"{path} only supports POST", code="method-not-allowed", status=405
                    )
                record = self._flight.begin(request_id, endpoint)
                status, payload, extra_post, meta = await self._post(path, body, request_id)
                extra.update(extra_post)
            elif path in GET_ROUTES or endpoint == "/debug/requests/<id>":
                if method != "GET":
                    raise ProtocolError(
                        f"{path} only supports GET", code="method-not-allowed", status=405
                    )
                status, payload = 200, await self._handle_get(path, headers)
            else:
                raise ProtocolError(
                    f"no such endpoint {path!r}", code="not-found", status=404
                )
        except ProtocolError as e:
            status, payload, error_code = e.status, e.to_payload(), e.code
            meta = getattr(e, "compute_meta", None)
            if e.status == 429:
                extra["Retry-After"] = "1"
        except Exception as e:  # pragma: no cover - route safety net
            logger.exception("unhandled %s error serving %s %s", self.prefix, method, path)
            status, error_code = 500, "internal-error"
            payload = error_payload("internal-error", f"{type(e).__name__}: {e}")
        total_ms = (time.perf_counter() - t0) * 1000.0
        if record is not None:
            cache = extra.get("X-Repro-Cache")
            meta = meta or {}
            self._flight.finish(
                record,
                status=status,
                cache=cache,
                queue_ms=meta.get("queue_ms"),
                compute_ms=meta.get("compute_ms"),
                total_ms=round(total_ms, 3),
                worker_pid=meta.get("worker_pid"),
                error_code=error_code,
                trace=self._flight_trace(
                    record, status=status, cache=cache, meta=meta, total_ms=total_ms
                ),
                replica=meta.get("replica"),
            )
        self._metrics.counter(
            f"{self.prefix}.responses", endpoint=endpoint, status=str(status)
        ).inc()
        self._metrics.latency_histogram(
            f"{self.prefix}.latency_ms", endpoint=endpoint
        ).observe(total_ms)
        return status, payload, extra

    async def _post(self, path: str, body: bytes, request_id: str):
        """Serve a compute request → ``(status, payload, extra, meta)``.

        ``meta`` feeds the flight record (``queue_ms``, ``compute_ms``,
        ``worker_pid``, ``replica``) and :meth:`_flight_trace`.
        """
        raise NotImplementedError  # pragma: no cover - abstract

    def _flight_trace(self, record, *, status, cache, meta, total_ms) -> dict | None:
        """The span tree kept with a finished compute request (if any)."""
        return None

    # -- GET endpoints ---------------------------------------------------
    async def _handle_get(self, path: str, headers: dict[str, str]):
        if path == "/healthz":
            return self._healthz()
        if path == "/metrics":
            self._refresh_slo_gauges()
            accept = headers.get("accept", "")
            return await self._metrics_response(
                prometheus="text/plain" in accept or "openmetrics" in accept
            )
        if path == "/debug/requests":
            return {
                "schema": "repro.serve-debug-requests",
                "version": 1,
                "requests": self._flight.recent(50),
                "slowest": self._flight.slowest(),
            }
        if path == "/debug/inflight":
            return {
                "schema": "repro.serve-debug-inflight",
                "version": 1,
                "admitted": self._admitted,
                "inflight": self._flight.inflight(),
            }
        return await self._debug_request(path[len(DEBUG_REQUEST_PREFIX):])

    def _healthz(self) -> dict:
        raise NotImplementedError  # pragma: no cover - abstract

    async def _metrics_response(self, *, prometheus: bool):
        """The ``/metrics`` body: Prometheus text or the JSON dump."""
        raise NotImplementedError  # pragma: no cover - abstract

    async def _debug_request(self, request_id: str) -> dict:
        found = self._flight.get(request_id)
        if found is None:
            raise ProtocolError(
                f"no retained request {request_id!r} (records and traces "
                "are bounded rings; it may have been evicted)",
                code="not-found",
                status=404,
            )
        return dict({"schema": "repro.serve-debug-request", "version": 1}, **found)

    def _uptime_s(self) -> float:
        if self.started_at is None:
            return 0.0
        return round(time.monotonic() - self.started_at, 3)

    def _slo_targets(self) -> dict:
        return {"p99_ms": self.config.slo_p99_ms, "error_rate": self.config.slo_error_rate}

    def _refresh_slo_gauges(self) -> None:
        """Recompute ``<prefix>.slo.*`` burn-rate gauges from the flight recorder.

        Burn rates are scrape-time quantities (a ratio over a trailing
        window), so they are refreshed on every ``/metrics`` read rather
        than on every request.
        """
        burn = self._flight.burn_rates(
            slo_p99_ms=self.config.slo_p99_ms,
            slo_error_rate=self.config.slo_error_rate,
        )
        for name in ("error_burn", "latency_burn", "error_rate", "window_requests"):
            self._metrics.gauge(f"{self.prefix}.slo.{name}").set(burn[name])


def run_service(service: HttpService, *, detail: str, out) -> int:
    """Serve until SIGTERM/SIGINT, then drain; the CLI exit code."""
    config = service.config

    async def run() -> None:
        await service.start()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, service.signal_shutdown)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        print(
            f"{service.prefix}: listening on http://{config.host}:{service.port} {detail}",
            file=out,
            flush=True,
        )
        await service.serve_until_shutdown()
        print(f"{service.prefix}: drained, bye", file=out, flush=True)

    try:
        asyncio.run(run())
    except OSError as e:
        print(f"error: cannot listen on {config.host}:{config.port}: {e}", file=out)
        return 1
    return 0
