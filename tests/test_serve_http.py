"""The HTTP contract both services share (``repro.serve.http``).

Every test runs twice over real sockets: against an
:class:`~repro.serve.server.EmbeddedServer` and against an
:class:`~repro.serve.cluster.EmbeddedRouter` in front of one replica.
Requests are spoken as raw bytes so framing, status lines, headers and
connection teardown are all visible.
"""

from __future__ import annotations

import json
import re
import socket
import time

import pytest

from repro import __version__
from repro.serve import (
    EmbeddedRouter,
    EmbeddedServer,
    ProtocolError,
    RouterConfig,
    ServeClient,
    ServeConfig,
)
from repro.serve.http import MAX_HEADER_LINES, MAX_LINE_BYTES

FAST_SOURCE = "Doall (i, 1, 8)\n  A[i] = B[i]\nEndDoall\n"


def _wait_ready(port: int, timeout_s: float = 60.0) -> None:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        with ServeClient("127.0.0.1", port, timeout=5.0) as c:
            if c.healthz().get("ready"):
                return
        time.sleep(0.05)
    pytest.fail(f"port {port} never became ready within {timeout_s}s")


@pytest.fixture(scope="module", params=["server", "router"])
def service(request):
    """``(kind, embedded)``: a server, or a router over one server."""
    replica = EmbeddedServer(ServeConfig(port=0, workers=1)).start()
    front = None
    try:
        _wait_ready(replica.port)
        if request.param == "router":
            front = EmbeddedRouter(
                RouterConfig(
                    port=0,
                    replicas=(f"127.0.0.1:{replica.port}",),
                    health_interval_s=0.1,
                )
            ).start()
            _wait_ready(front.port)
        yield request.param, front or replica
    finally:
        if front is not None:
            front.stop()
        replica.stop()


class Response:
    def __init__(self, status: int, headers: list[tuple[str, str]], body: bytes, closed: bool):
        self.status = status
        self.header_list = headers
        self.headers = {k.lower(): v for k, v in headers}
        self.body = body
        self.closed = closed  # the server closed the connection after it

    def json(self) -> dict:
        return json.loads(self.body)


def _read_response(sock: socket.socket, buf: bytes = b"") -> tuple[Response, bytes]:
    while b"\r\n\r\n" not in buf:
        chunk = sock.recv(65536)
        assert chunk, f"connection closed before a response: {buf!r}"
        buf += chunk
    head, _, buf = buf.partition(b"\r\n\r\n")
    status_line, *lines = head.decode("latin-1").split("\r\n")
    headers = [tuple(part.strip() for part in ln.split(":", 1)) for ln in lines]
    length = int(dict((k.lower(), v) for k, v in headers)["content-length"])
    while len(buf) < length:
        chunk = sock.recv(65536)
        assert chunk, "connection closed mid-body"
        buf += chunk
    return Response(int(status_line.split(" ")[1]), headers, buf[:length], False), buf[length:]


def _peer_closed(sock: socket.socket) -> bool:
    sock.settimeout(1.0)
    try:
        return sock.recv(1) == b""
    except socket.timeout:
        return False
    except ConnectionResetError:
        return True


def _exchange(port: int, raw: bytes) -> Response:
    """Send ``raw`` on a fresh connection; read one response."""
    with socket.create_connection(("127.0.0.1", port), timeout=120) as sock:
        sock.sendall(raw)
        resp, _rest = _read_response(sock)
        if resp.headers["connection"] == "close":
            resp.closed = _peer_closed(sock)
    return resp


def _request(
    method: str, path: str, *, body: bytes = b"", headers: dict | None = None
) -> bytes:
    lines = [f"{method} {path} HTTP/1.1", "Host: test"]
    lines += [f"{k}: {v}" for k, v in (headers or {}).items()]
    if body:
        lines.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def _partition_body(**overrides) -> bytes:
    return json.dumps(dict({"source": FAST_SOURCE, "processors": 4}, **overrides)).encode()


def _assert_refused(resp: Response, status: int, needle: str) -> None:
    assert resp.status == status
    assert resp.json()["error"]["code"] == "invalid-request"
    assert needle in resp.json()["error"]["message"]
    assert resp.headers["connection"] == "close" and resp.closed


class TestMalformedRequests:
    def test_malformed_request_line_is_400(self, service):
        _kind, emb = service
        _assert_refused(_exchange(emb.port, b"GARBAGE\r\n\r\n"), 400, "request line")

    def test_oversized_body_is_413(self, service):
        _kind, emb = service
        # Refused on the Content-Length header alone; the body never arrives.
        raw = b"POST /v1/partition HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % ((1 << 20) + 1)
        _assert_refused(_exchange(emb.port, raw), 413, "exceeds")

    def test_overlong_header_line_is_431(self, service):
        _kind, emb = service
        raw = _request("GET", "/healthz", headers={"X-Big": "a" * 70_000})
        _assert_refused(_exchange(emb.port, raw), 431, f"exceeds {MAX_LINE_BYTES} bytes")
        with ServeClient("127.0.0.1", emb.port) as c:  # still serving
            assert c.healthz()["status"] == "ok"

    def test_overlong_request_line_is_431(self, service):
        _kind, emb = service
        raw = _request("GET", "/" + "a" * 70_000)
        _assert_refused(_exchange(emb.port, raw), 431, "request line exceeds")

    def test_too_many_header_lines_is_431(self, service):
        _kind, emb = service
        headers = {f"X-H{i}": "1" for i in range(MAX_HEADER_LINES)}  # + Host
        _assert_refused(
            _exchange(emb.port, _request("GET", "/healthz", headers=headers)),
            431,
            f"more than {MAX_HEADER_LINES} header lines",
        )
        headers.pop("X-H0")  # exactly at the limit is fine
        assert _exchange(emb.port, _request("GET", "/healthz", headers=headers)).status == 200


class TestRouting:
    def test_unknown_path_is_404(self, service):
        _kind, emb = service
        resp = _exchange(emb.port, _request("GET", "/nope"))
        assert resp.status == 404 and resp.json()["error"]["code"] == "not-found"

    @pytest.mark.parametrize(
        "method,path", [("POST", "/healthz"), ("GET", "/v1/partition"), ("PUT", "/metrics")]
    )
    def test_wrong_method_is_405(self, service, method, path):
        _kind, emb = service
        resp = _exchange(emb.port, _request(method, path))
        assert resp.status == 405
        assert resp.json()["error"]["code"] == "method-not-allowed"


class TestHeaders:
    def test_request_id_echoed_when_supplied(self, service):
        _kind, emb = service
        raw = _request("GET", "/healthz", headers={"X-Repro-Request-Id": "contract-rid-1"})
        assert _exchange(emb.port, raw).headers["x-repro-request-id"] == "contract-rid-1"

    def test_request_id_minted_otherwise(self, service):
        _kind, emb = service
        first = _exchange(emb.port, _request("GET", "/healthz"))
        second = _exchange(emb.port, _request("GET", "/healthz"))
        minted = [r.headers["x-repro-request-id"] for r in (first, second)]
        assert all(re.fullmatch(r"[0-9a-f]{16}", rid) for rid in minted)
        assert minted[0] != minted[1]

    def test_malformed_request_id_is_400(self, service):
        _kind, emb = service
        raw = _request("GET", "/healthz", headers={"X-Repro-Request-Id": "bad id!"})
        assert _exchange(emb.port, raw).status == 400

    def test_connection_close_honoured(self, service):
        _kind, emb = service
        resp = _exchange(emb.port, _request("GET", "/healthz", headers={"Connection": "close"}))
        assert resp.status == 200
        assert resp.headers["connection"] == "close" and resp.closed

    def test_keep_alive_by_default(self, service):
        _kind, emb = service
        with socket.create_connection(("127.0.0.1", emb.port), timeout=30) as sock:
            sock.sendall(_request("GET", "/healthz") * 2)
            first, rest = _read_response(sock)
            second, _ = _read_response(sock, rest)
        assert first.headers["connection"] == "keep-alive"
        assert first.status == second.status == 200

    def test_server_header_names_the_service(self, service):
        """Every response names the service that sent it.

        A router's own JSON and the replica bytes it forwards both say
        ``repro-route``; a server says ``repro-serve``.
        """
        kind, emb = service
        expected = f"repro-{'route' if kind == 'router' else 'serve'}/{__version__}"
        generated = _exchange(emb.port, _request("GET", "/nope"))
        computed = _exchange(emb.port, _request("POST", "/v1/partition", body=_partition_body()))
        assert computed.status == 200
        assert generated.headers["server"] == computed.headers["server"] == expected


class TestResolvedDivergences:
    def test_405_opens_no_flight_record(self, service):
        """Flight records open after the method check: a 405 leaves none,
        while a compute request refused later (422) is recorded."""
        _kind, emb = service
        raw = _request("GET", "/v1/partition", headers={"X-Repro-Request-Id": "contract-405"})
        assert _exchange(emb.port, raw).status == 405
        raw = _request(
            "POST", "/v1/partition",
            body=_partition_body(processors=0),
            headers={"X-Repro-Request-Id": "contract-422"},
        )
        assert _exchange(emb.port, raw).status == 422
        assert _exchange(emb.port, _request("GET", "/debug/requests/contract-405")).status == 404
        found = _exchange(emb.port, _request("GET", "/debug/requests/contract-422"))
        assert found.status == 200 and found.json()["record"]["status"] == 422

    def test_429_carries_exactly_one_retry_after(self, service, monkeypatch):
        _kind, emb = service

        async def overloaded(path, body, request_id):
            raise ProtocolError("busy", code="overloaded", status=429)

        monkeypatch.setattr(emb.server, "_post", overloaded)
        resp = _exchange(emb.port, _request("POST", "/v1/partition", body=_partition_body()))
        assert resp.status == 429
        assert [v for k, v in resp.header_list if k.lower() == "retry-after"] == ["1"]
