"""Serving conformance: single-process threaded and pre-fork.

One parametrized fixture boots the same tiny artifact in one threaded
server and in two pre-forked threaded workers sharing a listening
socket; every conformance test then runs against both, so the route
surface, the structured error contract (including the 413 body-size
limit and strict-boolean validation), keep-alive pipelining,
concurrency, hostile input (oversized request lines and header
blocks, stalled clients), and metrics accounting are pinned for each
way of serving.  A separate test drives a golden request set through
both at once and asserts the response bodies are byte-identical — the
serving tier's core contract (the bodies are produced once, in
:class:`OracleApp`).
"""

import http.client
import json
import multiprocessing
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.analysis.exact import compute_settlement_probabilities
from repro.oracle import server as server_module
from repro.oracle.app import DEFAULT_MAX_BODY_BYTES, OracleApp
from repro.oracle.server import (
    make_listening_socket,
    make_server,
    serve_forever,
)
from repro.oracle.service import SettlementOracle
from repro.oracle.store import save_tables
from repro.oracle.tables import (
    OracleSpec,
    build_tables,
    effective_probabilities,
)

SPEC = OracleSpec(
    alphas=(0.1, 0.2),
    unique_fractions=(0.5, 1.0),
    deltas=(0, 2),
    depths=(5, 10),
    targets=(1e-1, 1e-2),
    activity=0.05,
)

#: Small cap so the 413 path is cheap to exercise.
SMALL_BODY_LIMIT = 64 * 1024

MODES = ("threaded", "prefork")


@pytest.fixture(scope="module")
def artifact_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("serving-artifact")
    save_tables(build_tables(SPEC).tables, directory)
    return directory


@pytest.fixture(scope="module")
def oracle(artifact_dir):
    return SettlementOracle.load(artifact_dir)


def _prefork_worker(artifact_dir, sock, index):
    worker_oracle = SettlementOracle.load(str(artifact_dir))
    app = OracleApp(
        worker_oracle,
        worker_label=str(index),
        max_body_bytes=SMALL_BODY_LIMIT,
    )
    make_server(app, sock=sock).serve_forever()


def _wait_ready(address, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            connection = http.client.HTTPConnection(*address, timeout=5)
            connection.request("GET", "/healthz")
            if connection.getresponse().status == 200:
                connection.close()
                return
        except OSError:
            time.sleep(0.05)
    raise RuntimeError(f"server at {address} never became ready")


def _boot(mode, oracle, artifact_dir):
    """Start one serving mode; returns ``(address, stop)``."""
    if mode == "threaded":
        server = make_server(
            OracleApp(oracle, max_body_bytes=SMALL_BODY_LIMIT)
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()

        def stop():
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)

        return server.server_address[:2], stop
    assert mode == "prefork"
    sock = make_listening_socket()
    address = sock.getsockname()[:2]
    context = multiprocessing.get_context("fork")
    workers = [
        context.Process(
            target=_prefork_worker,
            args=(artifact_dir, sock, index),
            daemon=True,
        )
        for index in range(2)
    ]
    for worker in workers:
        worker.start()
    sock.close()
    _wait_ready(address)

    def stop():
        for worker in workers:
            worker.terminate()
        for worker in workers:
            worker.join(timeout=10)

    return address, stop


@pytest.fixture(scope="module", params=MODES)
def served(request, oracle, artifact_dir):
    address, stop = _boot(request.param, oracle, artifact_dir)
    yield request.param, address
    stop()


def _exchange(address, method, target, body=None, headers=()):
    """One request on a fresh connection; returns ``(status, bytes)``."""
    connection = http.client.HTTPConnection(*address, timeout=10)
    try:
        connection.request(method, target, body=body, headers=dict(headers))
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def _get(address, target):
    return _exchange(address, "GET", target)


def _send_until_close(raw, data):
    """Write ``data`` on the socket ``raw`` and read until the server
    closes; returns ``(status, bytes)``.  A server that rejects a
    request before reading all of it may reset the connection, so a
    reset after the response arrived ends the read like a close."""
    received = b""
    try:
        raw.sendall(data)
        while chunk := raw.recv(65536):
            received += chunk
    except (BrokenPipeError, ConnectionResetError):
        if not received:
            raise
    status_line = received.split(b"\r\n", 1)[0]
    return int(status_line.split()[1]), received


def _raw_exchange(address, data, timeout=10):
    """:func:`_send_until_close` on a fresh connection."""
    with socket.create_connection(address, timeout=timeout) as raw:
        return _send_until_close(raw, data)


def _scrape(connection) -> str:
    connection.request("GET", "/metrics")
    return connection.getresponse().read().decode()


def _errors_counted(text: str, code: int) -> float:
    """``repro_oracle_errors_total{code=...}`` in one scrape (0 if the
    series does not exist yet)."""
    match = re.search(
        rf'^repro_oracle_errors_total{{code="{code}"[^}}]*}} (\S+)$',
        text,
        re.MULTILINE,
    )
    return float(match.group(1)) if match else 0.0


def _counted_error(address, data, code):
    """Send the malformed request ``data``; assert that the answer has
    an HTTP/1.1 status line with status ``code`` and that the serving
    process counted it in ``repro_oracle_errors_total``.  Returns the
    parsed JSON body.

    Which pre-fork worker accepts a connection is the kernel's choice,
    so the request goes out on a keep-alive connection that is known
    to share its process with the one scraping ``/metrics``: of any
    three connections, two share a worker, told apart by the
    ``worker`` label of their own scrapes."""
    connections = [
        http.client.HTTPConnection(*address, timeout=10) for _ in range(3)
    ]
    try:
        by_process = {}
        for connection in connections:
            connection.request("GET", "/healthz")
            connection.getresponse().read()
            worker = re.search(r'worker="([^"]*)"', _scrape(connection))
            by_process.setdefault(worker and worker.group(1), []).append(
                connection
            )
        scraper, sender = next(
            pair for pair in by_process.values() if len(pair) >= 2
        )[:2]
        before = _errors_counted(_scrape(scraper), code)
        status, data = _send_until_close(sender.sock, data)
        after = _errors_counted(_scrape(scraper), code)
    finally:
        for connection in connections:
            connection.close()
    assert data.startswith(f"HTTP/1.1 {code} ".encode())
    assert status == code
    assert after == before + 1
    return json.loads(data.split(b"\r\n\r\n", 1)[1])


def _post(address, target, payload):
    return _exchange(
        address,
        "POST",
        target,
        body=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )


def _oversized_post(address, length):
    """Announce a ``length``-byte POST body without sending it; returns
    the parsed body of the 413 that must arrive anyway."""
    with socket.create_connection(address, timeout=10) as raw:
        raw.sendall(
            b"POST /v1/violation HTTP/1.1\r\n"
            b"Host: test\r\n"
            b"Content-Type: application/json\r\n"
            + f"Content-Length: {length}\r\n\r\n".encode()
        )
        data = b""
        while b"\r\n\r\n" not in data or not data.split(b"\r\n\r\n", 1)[1]:
            chunk = raw.recv(65536)
            if not chunk:
                break
            data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    assert b" 413 " in head.split(b"\r\n", 1)[0]
    payload = json.loads(body)
    assert payload["error"] == "too-large"
    assert str(length) in payload["detail"]
    return payload


GOOD_BATCH = {
    "alpha": [0.1, 0.2, 0.13],
    "unique_fraction": [1.0, 0.5, 0.8],
    "delta": [0, 2, 1],
    "depth": [5, 10, 7],
}


class TestConformance:
    def test_healthz(self, served):
        _, address = served
        status, body = _get(address, "/healthz")
        payload = json.loads(body)
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["cells"] == 16
        assert len(payload["fingerprint"]) == 64

    def test_scalar_violation_matches_dp(self, served):
        _, address = served
        status, body = _get(
            address,
            "/v1/violation?alpha=0.2&unique_fraction=1.0&delta=0&depth=10",
        )
        assert status == 200
        law = effective_probabilities(0.2, 1.0, 0, SPEC.activity)
        sweep = compute_settlement_probabilities(
            law, list(range(1, SPEC.depth_horizon + 1))
        )
        assert json.loads(body)["violation_probability"] == sweep[10]

    def test_scalar_depth(self, served, oracle):
        _, address = served
        status, body = _get(
            address,
            "/v1/depth?alpha=0.1&unique_fraction=1.0&delta=0&target=0.1",
        )
        assert status == 200
        payload = json.loads(body)
        assert payload["source"] in ("table", "analytic")
        assert payload["depth"] >= 1
        assert payload["depth"] == int(
            oracle.tables.minimal_depth[0, 1, 0, 0]
        )

    def test_batch_violation(self, served):
        _, address = served
        status, body = _post(address, "/v1/violation", GOOD_BATCH)
        assert status == 200
        values = json.loads(body)["violation_probability"]
        assert len(values) == 3
        assert all(0.0 <= value <= 1.0 for value in values)

    def test_batch_depth(self, served):
        _, address = served
        status, body = _post(
            address,
            "/v1/depth",
            {
                "alpha": [0.1],
                "unique_fraction": [1.0],
                "delta": [0],
                "target": [0.1],
            },
        )
        assert status == 200
        assert isinstance(json.loads(body)["depth"][0], int)

    def test_out_of_domain_is_400(self, served):
        _, address = served
        status, body = _get(
            address,
            "/v1/violation?alpha=0.49&unique_fraction=1.0&delta=0&depth=10",
        )
        assert status == 400
        payload = json.loads(body)
        assert payload["error"] == "out-of-domain"
        assert "conservative hull" in payload["detail"]

    def test_missing_parameter_is_400(self, served):
        _, address = served
        status, body = _get(address, "/v1/violation?alpha=0.1")
        assert status == 400
        assert json.loads(body)["error"] == "bad-request"
        status, body = _post(address, "/v1/violation", {"alpha": [0.1]})
        assert status == 400
        assert json.loads(body)["error"] == "bad-request"

    def test_unknown_path_is_404(self, served):
        _, address = served
        status, body = _get(address, "/v2/nothing")
        assert status == 404
        assert json.loads(body)["error"] == "not-found"

    def test_malformed_json_is_400(self, served):
        _, address = served
        status, body = _exchange(
            address, "POST", "/v1/violation", body=b"{not json"
        )
        assert status == 400
        payload = json.loads(body)
        assert payload["error"] == "bad-request"
        assert "bad request body" in payload["detail"]

    def test_non_boolean_strict_is_400(self, served):
        _, address = served
        status, body = _post(
            address, "/v1/violation", {**GOOD_BATCH, "strict": "false"}
        )
        assert status == 400
        payload = json.loads(body)
        assert payload["error"] == "bad-request"
        assert "JSON boolean" in payload["detail"]

    def test_oversized_body_is_structured_413(self, served):
        """The limit is enforced on the Content-Length header *before*
        the body is read: the huge body is never sent, yet the 413
        arrives immediately and the connection closes."""
        _, address = served
        huge = SMALL_BODY_LIMIT * 64
        payload = _oversized_post(address, huge)
        assert str(huge) in payload["detail"]
        assert str(SMALL_BODY_LIMIT) in payload["detail"]

    def test_default_body_cap_is_413(self, oracle):
        """With no cap set, the 413 fires one byte past
        ``DEFAULT_MAX_BODY_BYTES``."""
        server = make_server(OracleApp(oracle))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            payload = _oversized_post(
                server.server_address[:2], DEFAULT_MAX_BODY_BYTES + 1
            )
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
        assert str(DEFAULT_MAX_BODY_BYTES) in payload["detail"]

    def test_bad_content_length_is_400(self, served):
        _, address = served
        status, data = _raw_exchange(
            address,
            b"POST /v1/violation HTTP/1.1\r\n"
            b"Host: test\r\n"
            b"Content-Length: banana\r\n\r\n",
        )
        assert status == 400
        assert b'"bad-request"' in data

    def test_negative_content_length_is_400(self, served):
        _, address = served
        status, data = _raw_exchange(
            address,
            b"POST /v1/violation HTTP/1.1\r\n"
            b"Host: test\r\n"
            b"Content-Length: -1\r\n\r\n",
        )
        assert status == 400
        assert b"invalid Content-Length '-1'" in data
        assert _get(address, "/healthz")[0] == 200

    def test_transfer_encoding_is_400_and_closes(self, served):
        """A chunked body is refused before any of it is read, and the
        connection closes (its framing is unreadable)."""
        _, address = served
        status, data = _raw_exchange(
            address,
            b"POST /v1/violation HTTP/1.1\r\n"
            b"Host: test\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n",
        )
        assert status == 400
        assert b"Connection: close" in data
        assert b"Transfer-Encoding is not supported" in data
        assert _get(address, "/healthz")[0] == 200

    def test_overlong_request_line_is_414(self, served):
        _, address = served
        target = "/v1/violation?pad=" + "a" * (64 * 1024)
        payload = _counted_error(
            address,
            f"GET {target} HTTP/1.1\r\nHost: test\r\n\r\n".encode(),
            414,
        )
        assert payload["error"] == "too-large"
        assert _get(address, "/healthz")[0] == 200

    def test_too_many_headers_is_431(self, served):
        _, address = served
        headers = "".join(f"X-Pad-{index}: x\r\n" for index in range(128))
        payload = _counted_error(
            address,
            f"GET /healthz HTTP/1.1\r\nHost: test\r\n{headers}\r\n".encode(),
            431,
        )
        assert payload == {"error": "too-large", "detail": "Too many headers"}
        assert _get(address, "/healthz")[0] == 200

    def test_malformed_request_line_is_400_with_status_line(self, served):
        """A one-word request line parses as HTTP/0.9, which http.server
        answers with no status line; the oracle answers HTTP/1.1."""
        _, address = served
        payload = _counted_error(address, b"GARBAGE\r\n", 400)
        assert payload == {
            "error": "bad-request",
            "detail": "Bad request syntax ('GARBAGE')",
        }
        assert _get(address, "/healthz")[0] == 200

    def test_unsupported_method_is_501(self, served):
        _, address = served
        payload = _counted_error(
            address,
            b"PUT /v1/violation HTTP/1.1\r\nHost: test\r\n"
            b"Content-Length: 2\r\n\r\n{}",
            501,
        )
        assert payload == {
            "error": "not-implemented",
            "detail": "Unsupported method ('PUT')",
        }
        assert _get(address, "/healthz")[0] == 200

    def test_stalled_client_does_not_block_others(self, served):
        """A client that sends half a header block and goes quiet holds
        only its own connection: a second client is still answered, and
        the stalled one is answered once it finishes its request."""
        _, address = served
        with socket.create_connection(address, timeout=10) as stalled:
            stalled.sendall(b"GET /healthz HTTP/1.1\r\nHost: te")
            status, body = _get(address, "/healthz")
            assert status == 200
            assert json.loads(body)["status"] == "ok"
            stalled.sendall(b"st\r\nConnection: close\r\n\r\n")
            data = b""
            while chunk := stalled.recv(65536):
                data += chunk
        assert data.startswith(b"HTTP/1.1 200 ")
        assert _get(address, "/healthz")[0] == 200

    def test_keep_alive_pipelining(self, served):
        """Two requests written back-to-back on one connection get two
        in-order responses on that same connection."""
        _, address = served
        request = (
            b"GET /v1/violation?alpha=0.2&unique_fraction=1.0&delta=0"
            b"&depth=10 HTTP/1.1\r\nHost: test\r\n\r\n"
        )
        with socket.create_connection(address, timeout=10) as raw:
            raw.sendall(request + request)
            raw.settimeout(10)
            data = b""
            deadline = time.monotonic() + 10
            while (
                data.count(b'"violation_probability"') < 2
                and time.monotonic() < deadline
            ):
                chunk = raw.recv(65536)
                if not chunk:
                    break
                data += chunk
        assert data.count(b"HTTP/1.1 200") == 2
        assert data.count(b'"violation_probability"') == 2

    def test_concurrent_clients_agree(self, served):
        _, address = served
        expected = _get(
            address,
            "/v1/violation?alpha=0.2&unique_fraction=1.0&delta=0&depth=10",
        )
        results = []
        errors = []

        def client():
            try:
                results.append(
                    _get(
                        address,
                        "/v1/violation?alpha=0.2&unique_fraction=1.0"
                        "&delta=0&depth=10",
                    )
                )
            except Exception as error:  # surfaced below
                errors.append(error)

        threads = [threading.Thread(target=client) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        assert len(results) == 8
        assert all(result == expected for result in results)

    def test_metrics_accounting(self, served):
        """Requests made on one keep-alive connection land in that
        process's registry; /metrics on the same connection shows them
        (and, in pre-fork mode, the worker label)."""
        mode, address = served
        connection = http.client.HTTPConnection(*address, timeout=10)
        try:
            connection.request(
                "GET",
                "/v1/violation?alpha=0.2&unique_fraction=1.0&delta=0"
                "&depth=10",
            )
            response = connection.getresponse()
            assert response.status == 200
            response.read()
            connection.request("GET", "/v1/violation?alpha=0.1")
            response = connection.getresponse()
            assert response.status == 400
            response.read()
            connection.request("GET", "/metrics")
            response = connection.getresponse()
            assert response.status == 200
            assert response.headers["Content-Type"].startswith("text/plain")
            text = response.read().decode()
        finally:
            connection.close()
        assert "# TYPE repro_oracle_requests_total counter" in text
        # Labels render sorted; pre-fork workers add a worker label.
        close = ',worker="' if mode == "prefork" else "}"
        assert (
            'repro_oracle_requests_total{code="200",method="GET",'
            'route="/v1/violation"' + close in text
        )
        assert 'repro_oracle_errors_total{code="400"' + close in text
        assert "# TYPE repro_oracle_request_seconds histogram" in text
        assert (
            'repro_oracle_request_seconds_count{route="/v1/violation"' + close
            in text
        )


GOLDEN_REQUESTS = (
    ("GET", "/healthz", None),
    (
        "GET",
        "/v1/violation?alpha=0.2&unique_fraction=1.0&delta=0&depth=10",
        None,
    ),
    (
        "GET",
        "/v1/violation?alpha=0.13&unique_fraction=0.8&delta=1&depth=7",
        None,
    ),
    ("GET", "/v1/depth?alpha=0.1&unique_fraction=1.0&delta=0&target=0.1", None),
    ("GET", "/v1/violation?alpha=0.49&unique_fraction=1.0&delta=0&depth=10", None),
    ("GET", "/v1/violation?alpha=0.1", None),
    ("GET", "/v2/nothing", None),
    ("POST", "/v1/violation", GOOD_BATCH),
    (
        "POST",
        "/v1/violation",
        {
            # Rows 1, 3 and 4 leave the hull and saturate to 1.0.
            "alpha": [0.1, 0.49, 0.2, 0.15, 0.1],
            "unique_fraction": [1.0, 1.0, 0.7, 0.2, 0.5],
            "delta": [0, 0, 1, 5, 2],
            "depth": [5, 10, 12, 7, 2],
            "strict": False,
        },
    ),
    (
        "POST",
        "/v1/depth",
        {
            "alpha": [0.1, 0.2],
            "unique_fraction": [1.0, 0.5],
            "delta": [0, 2],
            "target": [0.1, 0.01],
        },
    ),
    ("POST", "/v1/violation", {**GOOD_BATCH, "strict": "oops"}),
    ("POST", "/v1/violation", {"alpha": [0.1]}),
    ("POST", "/v1/violation", b"{broken"),
)


def test_golden_set_is_byte_identical_across_modes(oracle, artifact_dir):
    """Pre-fork workers return the same bytes as the single-process
    server for the same request — successes and every error kind
    alike."""
    booted = {
        mode: _boot(mode, oracle, artifact_dir) for mode in MODES
    }
    try:
        transcripts = {}
        for mode, (address, _) in booted.items():
            exchanges = []
            for method, target, payload in GOLDEN_REQUESTS:
                if payload is None:
                    exchanges.append(_exchange(address, method, target))
                elif isinstance(payload, bytes):
                    exchanges.append(
                        _exchange(address, method, target, body=payload)
                    )
                else:
                    exchanges.append(_post(address, target, payload))
            transcripts[mode] = exchanges
    finally:
        for _, stop in booted.values():
            stop()
    assert transcripts["prefork"] == transcripts["threaded"], (
        "prefork responses diverge from threaded"
    )


def test_serve_forever_rejects_zero_workers(oracle):
    announced = []
    with pytest.raises(ValueError, match="workers must be >= 1"):
        serve_forever(oracle, port=0, announce=announced.append, workers=0)
    assert announced == []


@pytest.mark.parametrize("workers", [1, 2])
def test_serve_forever_rejects_bad_options_before_announcing(
    oracle, workers
):
    """A worker's app is built before the listening line goes out, so
    a bad option fails in the caller, before any fork."""
    announced = []
    with pytest.raises(ValueError, match="max_body_bytes"):
        serve_forever(
            oracle,
            port=0,
            announce=announced.append,
            workers=workers,
            max_body_bytes=0,
        )
    assert announced == []


def test_serve_forever_fails_when_forked_workers_die(oracle, monkeypatch):
    """Workers that exit non-zero on their own make the parent raise
    instead of returning as if it had served."""

    def crash(app, sock):
        raise RuntimeError("worker could not start")

    monkeypatch.setattr(server_module, "_worker_main", crash)
    announced = []
    with pytest.raises(RuntimeError, match="worker 0 with status 1"):
        serve_forever(
            oracle, port=0, quiet=True, announce=announced.append, workers=2
        )
    assert len(announced) == 1


def _serve_cli(artifact_dir, *options):
    """``python -m repro.oracle serve`` in a subprocess, stdout piped."""
    src = os.path.abspath(
        os.path.join(os.path.dirname(__file__), "..", "..", "src")
    )
    path = os.environ.get("PYTHONPATH")
    env = {
        **os.environ,
        "PYTHONPATH": src + os.pathsep + path if path else src,
    }
    return subprocess.Popen(
        [sys.executable, "-m", "repro.oracle", "serve", str(artifact_dir),
         "--port", "0", "--quiet", *options],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )


def test_serve_cli_bad_option_exits_2_without_announcing(artifact_dir):
    process = _serve_cli(
        artifact_dir, "--workers", "2", "--max-body-bytes", "0"
    )
    out, err = process.communicate(timeout=60)
    assert process.returncode == 2
    assert out == ""
    assert "max_body_bytes must be positive" in err


def test_serve_cli_sigterm_stops_workers_and_exits_0(artifact_dir):
    process = _serve_cli(artifact_dir, "--workers", "2")
    try:
        line = process.stdout.readline()
        host, port = re.search(r"http://([\d.]+):(\d+)", line).groups()
        _wait_ready((host, int(port)))
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=30) == 0
    finally:
        if process.poll() is None:
            process.kill()
        process.communicate()


def test_make_server_adopts_listening_socket(oracle):
    """The pre-fork path: a server built on an inherited socket serves
    on that socket's address instead of binding its own."""
    sock = make_listening_socket()
    assert sock.get_inheritable()
    address = sock.getsockname()[:2]
    server = make_server(OracleApp(oracle), sock=sock)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        assert server.socket is sock
        assert server.server_address[:2] == address
        assert _get(address, "/healthz")[0] == 200
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
