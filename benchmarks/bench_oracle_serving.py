"""Over-the-wire SLO bench: single-process and pre-fork serving under load.

``bench_oracle_throughput.py`` measures the oracle's *in-process* query
paths; this module measures what a deployment actually gets: real
HTTP/1.1 requests on localhost, with concurrent persistent-connection
clients on both query shapes, in two serving modes:

* **threaded** — one ``ThreadingHTTPServer`` (one thread per
  connection, stdlib ``BaseHTTPRequestHandler`` parsing);
* **prefork4** — four forked worker processes, each a threaded server
  on one shared listening socket, the scale-out mode.

Per mode, both shapes are driven:

* **scalar** — ``GET /v1/violation?...`` one query per request, the
  latency-sensitive interactive path;
* **batch** — ``POST /v1/violation`` with columnar arrays, the
  throughput path (one NumPy gather answers the whole body).

Recorded SLO floors (asserted here and by ``run_all.py``):

* threaded batch sustains >= 50 000 queries/second over the wire —
  the historical floor; HTTP framing must not eat the batch advantage;
* prefork4 batch >= factor x threaded batch, where the factor scales
  with the cores the host actually has: 2.0 with >= 4 cores (the CI
  shape), 1.2 with 2-3, and 0.5 on a single core (four processes on
  one core can only add fork overhead — the floor then only guards
  against pathological collapse; ``cpu_count`` is recorded so readers
  can see which regime produced the number);
* error rate is exactly 0 across every request of the run;
* a golden query set (successes *and* errors) returns byte-identical
  bodies from both modes — the serving tier's parity contract;
* the ``/metrics`` endpoint counted the load it served.

Also recorded: the batch-encode micro-benchmark — the batch route's
cell splice (:class:`OracleApp` joins the cached JSON text of each
answer's table cell) against ``json.dumps`` of the answers'
``tolist()``, which it replaced, on a 2 000-wide batch of the served
artifact: the two bodies are asserted byte-equal, and each side's
median, min and max over the repeats are recorded.

The artifact is the tiny preset with the Monte-Carlo cross-check
disabled (the bench exercises serving, not building) in a throwaway
directory.
"""

import dataclasses
import json
import multiprocessing
import os
import pathlib
import sys
import threading
import time
from http.client import HTTPConnection

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.oracle import (  # noqa: E402
    SettlementOracle,
    TINY_SPEC,
    build_tables,
)
from repro.oracle.app import OracleApp  # noqa: E402
from repro.oracle.server import (  # noqa: E402
    make_listening_socket,
    make_server,
)

#: The serving artifact: tiny grid, no MC cross-check (pure DP build).
SERVING_SPEC = dataclasses.replace(
    TINY_SPEC, mc_trials=0, mc_depths=(), mc_target_se=0.0
)

QUERY_SEED = 20200707
BATCH_HTTP_FLOOR = 50_000.0  # queries/s over localhost HTTP (threaded)
ERROR_RATE_MAX = 0.0
PREFORK_WORKERS = 4


def prefork_speedup_floor(cpu_count: int | None) -> float:
    """The prefork4-vs-threaded batch floor for this host's cores.

    Four workers need four cores to prove a 2x win; on smaller hosts
    the floor degrades honestly (same policy as the distributed
    backend's bench) rather than asserting physically impossible
    parallelism: 1.2x with 2-3 cores, and on a single core only a
    guard against collapse (0.5x — fork + scheduling overhead).
    """
    cores = cpu_count or 1
    if cores >= 4:
        return 2.0
    if cores >= 2:
        return 1.2
    return 0.5


def _percentile_ms(latencies: list[float], fraction: float) -> float:
    """Nearest-rank percentile of a sorted latency sample, in ms."""
    index = max(
        0, min(len(latencies) - 1, round(fraction * (len(latencies) - 1)))
    )
    return round(1e3 * latencies[index], 3)


def _in_hull_queries(spec, count: int, rng: np.random.Generator):
    """Columnar random queries inside the table's conservative hull."""
    return (
        rng.uniform(spec.alphas[0], spec.alphas[-1], count),
        rng.uniform(
            spec.unique_fractions[0], spec.unique_fractions[-1], count
        ),
        rng.uniform(spec.deltas[0], spec.deltas[-1], count),
        rng.uniform(spec.depths[0], spec.depths[-1], count),
    )


def _drive(address, clients: int, requester) -> dict:
    """Fan ``requester(connection, client_index)`` across ``clients``
    persistent connections; aggregate latencies and errors.

    ``requester`` returns ``(latencies, errors)`` for its connection.
    The wall clock covers barrier release to last client done — the
    sustained-rate denominator, not per-client sums.
    """
    host, port = address
    results: list[tuple[list[float], int]] = [None] * clients
    barrier = threading.Barrier(clients + 1)

    def client(index: int) -> None:
        connection = HTTPConnection(host, port, timeout=60)
        try:
            barrier.wait()
            results[index] = requester(connection, index)
        finally:
            connection.close()

    threads = [
        threading.Thread(target=client, args=(index,))
        for index in range(clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start

    latencies = sorted(
        latency for sample, _ in results for latency in sample
    )
    errors = sum(errors for _, errors in results)
    return {
        "clients": clients,
        "requests": len(latencies) + errors,
        "seconds": round(wall, 4),
        "p50_ms": _percentile_ms(latencies, 0.50),
        "p99_ms": _percentile_ms(latencies, 0.99),
        "errors": errors,
        "_wall": wall,
    }


# ----------------------------------------------------------------------
# Booting the modes
# ----------------------------------------------------------------------


def _prefork_worker(directory: str, sock, index: int) -> None:
    worker_oracle = SettlementOracle.load(directory)
    app = OracleApp(worker_oracle, worker_label=str(index))
    make_server(app=app, sock=sock).serve_forever()


def _wait_ready(address, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            probe = HTTPConnection(*address, timeout=5)
            probe.request("GET", "/healthz")
            if probe.getresponse().status == 200:
                probe.close()
                return
        except OSError:
            time.sleep(0.05)
    raise RuntimeError(f"serving mode at {address} never became ready")


def _boot(mode: str, directory: str, oracle):
    """Start one serving mode; returns ``(address, stop)``."""
    if mode == "threaded":
        server = make_server(oracle, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()

        def stop():
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)

        return server.server_address[:2], stop
    assert mode == "prefork4"
    sock = make_listening_socket()
    address = sock.getsockname()[:2]
    context = multiprocessing.get_context("fork")
    workers = [
        context.Process(
            target=_prefork_worker,
            args=(directory, sock, index),
            daemon=True,
        )
        for index in range(PREFORK_WORKERS)
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


# ----------------------------------------------------------------------
# Parity + encode micro-bench
# ----------------------------------------------------------------------

_PARITY_REQUESTS = (
    ("GET", "/healthz", None),
    ("GET", "/v1/violation?alpha=0.13&unique_fraction=0.83&delta=1&depth=7", None),
    ("GET", "/v1/depth?alpha=0.1&unique_fraction=1.0&delta=0&target=0.1", None),
    ("GET", "/v1/violation?alpha=0.49&unique_fraction=1.0&delta=0&depth=10", None),
    ("GET", "/v1/violation?alpha=0.1", None),
    ("GET", "/v2/nothing", None),
    (
        "POST",
        "/v1/violation",
        {
            "alpha": [0.1, 0.2, 0.13],
            "unique_fraction": [1.0, 0.5, 0.8],
            "delta": [0, 2, 1],
            "depth": [5, 10, 7],
        },
    ),
    ("POST", "/v1/violation", {"alpha": [0.1], "strict": "oops"}),
)


def _mode_transcript(address) -> list:
    transcript = []
    for method, target, payload in _PARITY_REQUESTS:
        connection = HTTPConnection(*address, timeout=60)
        try:
            body = (
                json.dumps(payload).encode() if payload is not None else None
            )
            connection.request(
                method,
                target,
                body=body,
                headers={"Content-Type": "application/json"} if body else {},
            )
            response = connection.getresponse()
            transcript.append((response.status, response.read()))
        finally:
            connection.close()
    return transcript


def _median_spread_ms(seconds: list[float]) -> dict:
    seconds = sorted(seconds)
    return {
        name: _percentile_ms(seconds, fraction)
        for name, fraction in (("median", 0.5), ("min", 0.0), ("max", 1.0))
    }


def _batch_encode_record(
    oracle, batch_size: int = 2_000, repeats: int = 50
) -> dict:
    """The batch-route encode micro-benchmark on the served artifact:
    ``json.dumps`` of the answers (the replaced encoding) vs the cell
    splice the route now uses.  Both must write the same bytes."""
    columns = _in_hull_queries(
        oracle.spec, batch_size, np.random.default_rng(QUERY_SEED)
    )
    app = OracleApp(oracle)
    cells = oracle.violation_cells(*columns)
    values = oracle.violation_probabilities(*columns)

    def dumps() -> bytes:
        return json.dumps({"violation_probability": values.tolist()}).encode()

    def splice() -> bytes:
        return app._violation_body(*cells)

    # The first splice also builds the app's cell-text cache.
    if splice() != dumps():
        raise AssertionError("cell splice and json.dumps bodies differ")
    times = {"dumps": [], "splice": []}
    for _ in range(repeats):
        for name, encode in (("dumps", dumps), ("splice", splice)):
            start = time.perf_counter()
            encode()
            times[name].append(time.perf_counter() - start)
    dumps_ms, splice_ms = (
        _median_spread_ms(times["dumps"]),
        _median_spread_ms(times["splice"]),
    )
    return {
        "batch_size": batch_size,
        "repeats": repeats,
        "byte_identical": True,
        "dumps_ms": dumps_ms,
        "splice_ms": splice_ms,
        "speedup": round(dumps_ms["median"] / splice_ms["median"], 2),
    }


# ----------------------------------------------------------------------
# The record
# ----------------------------------------------------------------------


def serving_record(quick: bool) -> dict:
    """Build, serve, and load-test both modes; the ``serving`` record."""
    import tempfile

    clients = 2 if quick else 4
    scalar_requests = 150 if quick else 500  # per client
    batch_requests = 15 if quick else 40  # per client
    batch_size = 1_000 if quick else 2_000  # queries per POST

    rng = np.random.default_rng(QUERY_SEED)

    with tempfile.TemporaryDirectory(prefix="repro-serving-") as directory:
        build_tables(SERVING_SPEC, out_dir=directory)
        oracle = SettlementOracle.load(directory)
        spec = oracle.spec

        # Pre-generate per-client query sets (the generator is not
        # thread-safe; the drive threads only read).
        scalar_queries = [
            list(zip(*_in_hull_queries(spec, scalar_requests, rng)))
            for _ in range(clients)
        ]
        batch_payloads = []
        for _ in range(clients):
            alphas, fractions, deltas, depths = _in_hull_queries(
                spec, batch_size, rng
            )
            batch_payloads.append(
                json.dumps(
                    {
                        "alpha": alphas.tolist(),
                        "unique_fraction": fractions.tolist(),
                        "delta": deltas.tolist(),
                        "depth": depths.tolist(),
                    }
                ).encode()
            )

        def scalar_requester(connection, index):
            latencies, errors = [], 0
            for alpha, fraction, delta, depth in scalar_queries[index]:
                path = (
                    f"/v1/violation?alpha={alpha}"
                    f"&unique_fraction={fraction}"
                    f"&delta={delta}&depth={depth}"
                )
                started = time.perf_counter()
                connection.request("GET", path)
                response = connection.getresponse()
                body = response.read()
                latencies.append(time.perf_counter() - started)
                if (
                    response.status != 200
                    or "violation_probability" not in json.loads(body)
                ):
                    errors += 1
                    latencies.pop()
            return latencies, errors

        def batch_requester(connection, index):
            payload = batch_payloads[index]
            headers = {"Content-Type": "application/json"}
            latencies, errors = [], 0
            for _ in range(batch_requests):
                started = time.perf_counter()
                connection.request("POST", "/v1/violation", payload, headers)
                response = connection.getresponse()
                body = response.read()
                latencies.append(time.perf_counter() - started)
                if response.status != 200 or len(
                    json.loads(body)["violation_probability"]
                ) != batch_size:
                    errors += 1
                    latencies.pop()
            return latencies, errors

        batch_encode = _batch_encode_record(oracle)
        modes = {}
        transcripts = {}
        metrics_ok = False
        for mode in ("threaded", "prefork4"):
            address, stop = _boot(mode, directory, oracle)
            try:
                scalar = _drive(address, clients, scalar_requester)
                batch = _drive(address, clients, batch_requester)
                transcripts[mode] = _mode_transcript(address)
                if mode == "threaded":
                    # The server's telemetry must have counted the load.
                    probe = HTTPConnection(*address, timeout=60)
                    try:
                        probe.request("GET", "/metrics")
                        response = probe.getresponse()
                        exposition = response.read().decode()
                        metrics_ok = (
                            response.status == 200
                            and "repro_oracle_requests_total" in exposition
                            and "repro_oracle_request_seconds_bucket"
                            in exposition
                        )
                    finally:
                        probe.close()
            finally:
                stop()
            scalar["requests_per_second"] = round(
                scalar["requests"] / scalar.pop("_wall"), 1
            )
            batch_queries = batch["requests"] * batch_size
            batch["batch_size"] = batch_size
            batch["queries"] = batch_queries
            batch["queries_per_second"] = round(
                batch_queries / batch.pop("_wall"), 1
            )
            entry = {"scalar": scalar, "batch": batch}
            if mode == "prefork4":
                entry["workers"] = PREFORK_WORKERS
            modes[mode] = entry

    threaded = modes["threaded"]
    answers_identical = transcripts["prefork4"] == transcripts["threaded"]
    prefork_speedup = round(
        modes["prefork4"]["batch"]["queries_per_second"]
        / threaded["batch"]["queries_per_second"],
        2,
    )
    cpu_count = os.cpu_count()
    prefork_floor = prefork_speedup_floor(cpu_count)

    total_requests = sum(
        entry[shape]["requests"]
        for entry in modes.values()
        for shape in ("scalar", "batch")
    )
    total_errors = sum(
        entry[shape]["errors"]
        for entry in modes.values()
        for shape in ("scalar", "batch")
    )
    record = {
        "artifact_cells": int(oracle.tables.forward.size),
        "quick": quick,
        "cpu_count": cpu_count,
        # Historical top-level rows == the threaded mode (kept so older
        # readers of BENCH_engine.json keep working).
        "scalar": threaded["scalar"],
        "batch": threaded["batch"],
        "modes": modes,
        "prefork_batch_speedup": prefork_speedup,
        "answers_identical_across_modes": answers_identical,
        "batch_encode": batch_encode,
        "error_rate": total_errors / total_requests,
        "metrics_endpoint_counted_load": metrics_ok,
        "slo": {
            "batch_queries_per_second_floor": BATCH_HTTP_FLOOR,
            "prefork_batch_speedup_floor": prefork_floor,
            "error_rate_max": ERROR_RATE_MAX,
        },
    }
    record["slo"]["met"] = (
        threaded["batch"]["queries_per_second"] >= BATCH_HTTP_FLOOR
        and prefork_speedup >= prefork_floor
        and record["error_rate"] <= ERROR_RATE_MAX
        and answers_identical
        and metrics_ok
    )
    return record


def test_serving_meets_slo_floors():
    """The pytest entry the full bench suite collects."""
    record = serving_record(quick=True)
    assert record["error_rate"] == 0.0, record
    assert record["batch"]["queries_per_second"] >= BATCH_HTTP_FLOOR, record
    assert record["prefork_batch_speedup"] >= (
        record["slo"]["prefork_batch_speedup_floor"]
    ), record
    assert record["answers_identical_across_modes"], record
    assert record["metrics_endpoint_counted_load"], record
    assert record["batch_encode"]["speedup"] > 1.0, record
    assert record["slo"]["met"]


def main() -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI-sized run")
    parser.add_argument(
        "--out",
        default=str(REPO_ROOT / "BENCH_engine.json"),
        help="merge the serving record into this JSON file",
    )
    args = parser.parse_args()

    record = serving_record(args.quick)
    out = pathlib.Path(args.out)
    merged = json.loads(out.read_text()) if out.exists() else {}
    merged["serving"] = record
    out.write_text(json.dumps(merged, indent=2) + "\n")
    for mode, entry in record["modes"].items():
        print(
            f"serving[{mode}]: scalar "
            f"{entry['scalar']['requests_per_second']} req/s "
            f"(p50 {entry['scalar']['p50_ms']}ms, "
            f"p99 {entry['scalar']['p99_ms']}ms), batch "
            f"{entry['batch']['queries_per_second']} queries/s "
            f"(p50 {entry['batch']['p50_ms']}ms, "
            f"p99 {entry['batch']['p99_ms']}ms)"
        )
    print(
        f"serving: prefork4 batch speedup "
        f"{record['prefork_batch_speedup']}x (floor "
        f"{record['slo']['prefork_batch_speedup_floor']}, "
        f"{record['cpu_count']} cores), batch encode speedup "
        f"{record['batch_encode']['speedup']}x, parity "
        f"{record['answers_identical_across_modes']}, error rate "
        f"{record['error_rate']}; record merged into {out}"
    )
    if not record["slo"]["met"]:
        print(
            "FAIL: serving SLO floors not met "
            f"(threaded batch {record['batch']['queries_per_second']} q/s "
            f"vs {BATCH_HTTP_FLOOR} floor, prefork batch speedup "
            f"{record['prefork_batch_speedup']} vs "
            f"{record['slo']['prefork_batch_speedup_floor']}, error rate "
            f"{record['error_rate']}, parity "
            f"{record['answers_identical_across_modes']})",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
