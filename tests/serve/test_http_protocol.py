"""Protocol conformance for the HTTP gateway (repro.serve.http).

Table-driven request/response pins: every malformed input — bad JSON,
unknown semiring, oversized body, missing fields, wrong method or path —
maps to an exact status code and the one stable error-envelope shape.
These tests freeze the wire contract; breaking one means breaking every
deployed client, so change them only with a protocol version bump.

The suite runs against a real server on an ephemeral port (marked
``http``: deselect with ``-m 'not http'`` in sandboxes without
sockets).  The backing scheduler is the in-process batch tier — fast to
boot, and the protocol surface under test is tier-independent; the
sharded tier's HTTP behavior is covered by test_http_gateway.py.
"""

from __future__ import annotations

import http.client
import json
import math
from concurrent.futures import Future

import pytest

from repro.serve import (
    BatchScheduler,
    GatewayClient,
    GatewayStatusError,
    HttpGateway,
    ServeResult,
    SubmitRequest,
)
from repro.serve.http import RETRYABLE_STATUS, STATUS_BY_ERROR, error_envelope

pytestmark = pytest.mark.http

MAX_BODY = 64 * 1024


# ---------------------------------------------------------------------------
# plumbing


def _call(
    gateway,
    method: str,
    path: str,
    body: bytes | None = None,
    headers: dict | None = None,
    timeout: float = 30.0,
):
    """One raw round-trip -> (status, headers, decoded-or-None, raw)."""
    conn = http.client.HTTPConnection(gateway.host, gateway.port, timeout=timeout)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        resp = conn.getresponse()
        raw = resp.read()
        try:
            decoded = json.loads(raw.decode())
        except json.JSONDecodeError:
            decoded = None
        return resp.status, resp.headers, decoded, raw
    finally:
        conn.close()


def assert_envelope(body: dict, status: int, code: str | None = None) -> None:
    """Pin the stable error-envelope shape."""
    assert sorted(body) == ["error", "id", "ok"]
    assert body["ok"] is False
    assert isinstance(body["id"], str)
    err = body["error"]
    assert err["status"] == status
    assert isinstance(err["message"], str) and err["message"]
    if code is not None:
        assert err["code"] == code
    if status in RETRYABLE_STATUS:
        assert isinstance(err["retry_after_s"], (int, float))
        assert math.isfinite(err["retry_after_s"])
        assert err["retry_after_s"] > 0
        assert set(err) == {"code", "message", "status", "retry_after_s"}
    else:
        assert set(err) == {"code", "message", "status"}


@pytest.fixture(scope="module")
def gateway():
    with BatchScheduler(workers=2, max_delay_s=0.002) as sched:
        with HttpGateway(sched, max_body_bytes=MAX_BODY) as gw:
            yield gw


# ---------------------------------------------------------------------------
# table-driven conformance: one row per malformed input


def _req(obj) -> bytes:
    return json.dumps(obj).encode()


CONFORMANCE = [
    # (name, method, path, body, expected_status, expected_code)
    ("fold-bad-json", "POST", "/v1/fold", b"{nope", 400, "BpmaxError"),
    ("fold-non-object", "POST", "/v1/fold", b"[1,2]", 400, "BpmaxError"),
    (
        "fold-missing-seq2",
        "POST", "/v1/fold", _req({"seq1": "GGGG"}),
        400, "BpmaxError",
    ),
    (
        "fold-non-string-seq",
        "POST", "/v1/fold", _req({"seq1": "GGGG", "seq2": 7}),
        400, "BpmaxError",
    ),
    (
        "fold-unknown-key",
        "POST", "/v1/fold", _req({"seq1": "GG", "seq2": "CC", "bogus": 1}),
        400, "BpmaxError",
    ),
    (
        "fold-unknown-semiring",
        "POST", "/v1/fold",
        _req({"seq1": "GG", "seq2": "CC", "semiring": "tropical-typo"}),
        400, "BpmaxError",
    ),
    (
        "fold-unknown-variant",
        "POST", "/v1/fold",
        _req({"seq1": "GG", "seq2": "CC", "variant": "nope"}),
        400, "BpmaxError",
    ),
    (
        "fold-unknown-backend",
        "POST", "/v1/fold",
        _req({"seq1": "GG", "seq2": "CC", "backend": "generated"}),
        400, "BpmaxError",
    ),
    (
        "fold-bad-priority",
        "POST", "/v1/fold",
        _req({"seq1": "GG", "seq2": "CC", "priority": "urgent"}),
        400, "BpmaxError",
    ),
    (
        "fold-negative-deadline",
        "POST", "/v1/fold",
        _req({"seq1": "GG", "seq2": "CC", "deadline": -1}),
        400, "BpmaxError",
    ),
    (
        "fold-invalid-sequence",
        "POST", "/v1/fold", _req({"seq1": "GX!!ZZ", "seq2": "CCCC"}),
        400, "InvalidSequenceError",
    ),
    ("fold-wrong-method", "GET", "/v1/fold", None, 405, "MethodNotAllowed"),
    ("batch-wrong-method", "GET", "/v1/batch", None, 405, "MethodNotAllowed"),
    ("healthz-wrong-method", "POST", "/healthz", b"{}", 405, "MethodNotAllowed"),
    ("metrics-wrong-method", "POST", "/metrics", b"{}", 405, "MethodNotAllowed"),
    ("unknown-path", "GET", "/v2/fold", None, 404, "NotFound"),
    ("unknown-path-post", "POST", "/fold", b"{}", 404, "NotFound"),
    ("batch-empty-body", "POST", "/v1/batch", b"", 400, "BpmaxError"),
    ("batch-only-comments", "POST", "/v1/batch", b"# nothing\n\n", 400, "BpmaxError"),
]


@pytest.mark.parametrize(
    "name,method,path,body,status,code",
    CONFORMANCE,
    ids=[row[0] for row in CONFORMANCE],
)
def test_conformance_table(gateway, name, method, path, body, status, code):
    got_status, headers, decoded, raw = _call(gateway, method, path, body=body)
    assert got_status == status, raw
    assert headers.get("Content-Type") == "application/json"
    assert decoded is not None, raw
    assert_envelope(decoded, status, code)


def test_oversized_body_is_413_without_reading(gateway):
    body = b" " * (MAX_BODY + 1)
    status, headers, decoded, _raw = _call(gateway, "POST", "/v1/fold", body=body)
    assert status == 413
    assert_envelope(decoded, 413, "PayloadTooLarge")
    assert headers.get("Connection") == "close"


def test_missing_content_length_is_411(gateway):
    # http.client always sends Content-Length for POST, so speak raw
    # bytes to actually omit the header
    import socket as socket_mod

    with socket_mod.create_connection(
        (gateway.host, gateway.port), timeout=10.0
    ) as sock:
        sock.sendall(
            b"POST /v1/fold HTTP/1.1\r\nHost: gateway\r\n\r\n"
        )
        chunks = []
        while True:
            data = sock.recv(65536)
            if not data:
                break
            chunks.append(data)
    raw = b"".join(chunks)
    head, _, body = raw.partition(b"\r\n\r\n")
    assert b"411" in head.splitlines()[0]
    decoded = json.loads(body.decode())
    assert_envelope(decoded, 411, "LengthRequired")


def test_zero_content_length_fold_is_400(gateway):
    # http.client's POST with body=None arrives as Content-Length: 0,
    # which is an empty (invalid-JSON) body, not a protocol violation
    status, _headers, decoded, _raw = _call(gateway, "POST", "/v1/fold", body=None)
    assert status == 400
    assert_envelope(decoded, 400, "BpmaxError")


def test_fold_error_envelope_echoes_request_id(gateway):
    status, _h, decoded, _raw = _call(
        gateway, "POST", "/v1/fold",
        body=_req({"seq1": "GX!!ZZ", "seq2": "CCCC", "id": "poisoned-1"}),
    )
    assert status == 400
    # validation fails at submit; the scheduler still attributes the
    # failure to the caller's id
    assert decoded["id"] == "poisoned-1"
    assert decoded["error"]["code"] == "InvalidSequenceError"


# ---------------------------------------------------------------------------
# happy paths and endpoint payload shapes


def test_fold_ok_result_shape(gateway):
    status, headers, decoded, _raw = _call(
        gateway, "POST", "/v1/fold",
        body=_req({"seq1": "GGGG", "seq2": "CCCC", "id": "ok-1"}),
    )
    assert status == 200
    assert headers.get("Content-Type") == "application/json"
    assert decoded["ok"] is True
    assert decoded["id"] == "ok-1"
    assert decoded["score"] == 12.0
    # the 200 body is the full ServeResult wire object, same as JSONL serve
    assert set(decoded) == {
        "id", "ok", "seq1", "seq2", "score", "variant", "cached", "batch",
        "shard", "wall_s", "structure", "degraded_from", "error", "error_type",
    }


def test_batch_streams_one_line_per_request(gateway):
    body = b"\n".join([
        _req({"seq1": "GCGC", "seq2": "GCGC", "id": "b1"}),
        b"# a comment line",
        b"",
        _req({"seq1": "AAAA", "seq2": "UUUU", "id": "b2"}),
        b"{broken json",
        _req({"seq1": "GG!!", "seq2": "CC", "id": "b3"}),
    ]) + b"\n"
    status, headers, _decoded, raw = _call(gateway, "POST", "/v1/batch", body=body)
    assert status == 200
    assert headers.get("Content-Type") == "application/x-ndjson"
    lines = [json.loads(l) for l in raw.decode().splitlines() if l.strip()]
    # 4 request lines (comments/blanks are free), every one answered
    assert len(lines) == 4
    by_id = {l["id"]: l for l in lines}
    assert by_id["b1"]["ok"] is True and by_id["b1"]["score"] == 12.0
    assert by_id["b2"]["ok"] is True and by_id["b2"]["score"] == 8.0
    assert_envelope(by_id["b3"], 400, "InvalidSequenceError")
    # the malformed line reports under its line number with a 400 envelope
    assert_envelope(by_id["line5"], 400, "BpmaxError")


def test_healthz_shape(gateway):
    status, _h, decoded, _raw = _call(gateway, "GET", "/healthz")
    assert status == 200
    assert decoded["status"] == "ok"
    assert decoded["tier"] == "batch"
    assert decoded["uptime_s"] >= 0
    assert "scheduler" in decoded and "completed" in decoded["scheduler"]


def test_metrics_shape(gateway):
    status, _h, decoded, _raw = _call(gateway, "GET", "/metrics")
    assert status == 200
    assert set(decoded) >= {"uptime_s", "http", "observe", "scheduler"}
    http_stats = decoded["http"]
    assert http_stats["requests"] >= 1
    assert "by_status" in http_stats
    # the gateway's process-wide observe collector sees scheduler counters
    assert "requests_served" in decoded["observe"]
    assert decoded["observe"]["requests_served"] >= 1


# ---------------------------------------------------------------------------
# deterministic status mapping for shed/failed results (stub scheduler):
# every structured error code pins to its HTTP status, and retryable
# statuses always carry a finite Retry-After


class _StubScheduler:
    """Resolves every submit instantly with a canned error result."""

    def __init__(self, error_type: str):
        self.error_type = error_type
        self.stats = {
            "completed": 50,
            "submitted": 53,
            "queue_depth_by_class": {"interactive": 0, "batch": 3, "scan": 0},
        }

    def submit(self, req: SubmitRequest) -> Future:
        fut: Future = Future()
        fut.set_result(ServeResult(
            id=req.id, seq1=req.seq1, seq2=req.seq2,
            error=f"stubbed {self.error_type}", error_type=self.error_type,
        ))
        return fut

    def close(self) -> None:
        pass


@pytest.mark.parametrize(
    "error_type,status",
    sorted(STATUS_BY_ERROR.items()),
    ids=[code for code, _ in sorted(STATUS_BY_ERROR.items())],
)
def test_error_code_to_status_mapping(error_type, status):
    with HttpGateway(_StubScheduler(error_type)) as gw:
        got_status, headers, decoded, _raw = _call(
            gw, "POST", "/v1/fold", body=_req({"seq1": "GG", "seq2": "CC", "id": "x"}),
        )
        assert got_status == status
        assert_envelope(decoded, status, error_type)
        assert decoded["id"] == "x"
        if status in RETRYABLE_STATUS:
            retry_after = float(headers["Retry-After"])
            assert math.isfinite(retry_after) and retry_after > 0
            assert decoded["error"]["retry_after_s"] == pytest.approx(
                retry_after, abs=1e-3
            )
        else:
            assert headers.get("Retry-After") is None


def test_unknown_error_code_maps_to_500():
    with HttpGateway(_StubScheduler("SomethingNovel")) as gw:
        status, _h, decoded, _raw = _call(
            gw, "POST", "/v1/fold", body=_req({"seq1": "GG", "seq2": "CC"}),
        )
        assert status == 500
        assert_envelope(decoded, 500, "SomethingNovel")


def test_retry_after_reflects_queue_drain_estimate():
    stub = _StubScheduler("AdmissionRejected")
    with HttpGateway(stub) as gw:
        # depth 3, ~50 completed over a tiny uptime -> clamped to the
        # floor; all that matters for the contract is finite and positive
        hint = gw.retry_after_s()
        assert math.isfinite(hint)
        assert gw.min_retry_after_s <= hint <= gw.max_retry_after_s
        # a cold tier (nothing completed) still yields a finite hint
        stub.stats = {"completed": 0, "submitted": 0, "queue_depth_by_class": {}}
        hint = gw.retry_after_s()
        assert math.isfinite(hint) and hint > 0


# ---------------------------------------------------------------------------
# drain semantics


def test_draining_gateway_rejects_new_work_with_503():
    with BatchScheduler(workers=1, max_delay_s=0.001) as sched:
        gw = HttpGateway(sched).start()
        try:
            status, _h, decoded, _raw = _call(
                gw, "POST", "/v1/fold", body=_req({"seq1": "GG", "seq2": "CC"}),
            )
            assert status == 200
            gw.drain(timeout=10.0)
            # the listening socket is gone: new connections are refused
            with pytest.raises(OSError):
                _call(gw, "POST", "/v1/fold",
                      body=_req({"seq1": "GG", "seq2": "CC"}), timeout=2.0)
            status_code, payload = gw.health()
            assert status_code == 503
            assert payload["status"] == "draining"
        finally:
            gw.close()


def test_envelope_helper_shape_is_pinned():
    env = error_envelope("AdmissionRejected", "queue full", 429,
                         id="r9", retry_after_s=0.25)
    assert env == {
        "ok": False,
        "id": "r9",
        "error": {
            "code": "AdmissionRejected",
            "message": "queue full",
            "status": 429,
            "retry_after_s": 0.25,
        },
    }
    assert_envelope(env, 429, "AdmissionRejected")


# ---------------------------------------------------------------------------
# client-side conformance: the retry policy is part of the protocol


def test_client_raises_structured_error_on_4xx(gateway):
    client = GatewayClient(gateway.url(), max_retries=0)
    with pytest.raises(GatewayStatusError) as exc_info:
        client.fold({"seq1": "GX!!", "seq2": "CC"})
    err = exc_info.value
    assert err.status == 400
    assert err.code == "InvalidSequenceError"


def test_client_retries_429_honoring_retry_after():
    class _FlakyScheduler(_StubScheduler):
        def __init__(self):
            super().__init__("AdmissionRejected")
            self.calls = 0

        def submit(self, req):
            self.calls += 1
            if self.calls < 3:  # shed twice, then accept
                return super().submit(req)
            fut: Future = Future()
            fut.set_result(ServeResult(
                id=req.id, seq1=req.seq1, seq2=req.seq2, score=12.0,
                variant="hybrid-tiled",
            ))
            return fut

    sched = _FlakyScheduler()
    with HttpGateway(sched, min_retry_after_s=0.01) as gw:
        client = GatewayClient(gw.url(), max_retries=4)
        result = client.fold({"seq1": "GGGG", "seq2": "CCCC", "id": "rt"})
        assert result["ok"] is True and result["score"] == 12.0
        assert sched.calls == 3
        assert client.retries_performed == 2


def test_client_does_not_retry_non_retryable_status():
    sched = _StubScheduler("WorkerFailure")
    with HttpGateway(sched) as gw:
        client = GatewayClient(gw.url(), max_retries=5)
        with pytest.raises(GatewayStatusError) as exc_info:
            client.fold({"seq1": "GG", "seq2": "CC"})
        assert exc_info.value.status == 500
        assert client.retries_performed == 0


def test_client_transport_error_is_structured():
    from repro.serve import GatewayUnavailable

    # grab a port nothing listens on by binding and closing it
    import socket as socket_mod

    s = socket_mod.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    client = GatewayClient(f"http://127.0.0.1:{port}", timeout_s=2.0)
    with pytest.raises(GatewayUnavailable):
        client.fold({"seq1": "GG", "seq2": "CC"})
