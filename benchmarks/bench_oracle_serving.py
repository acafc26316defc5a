"""Over-the-wire SLO bench: the shipped ``repro.oracle serve`` CLI under load.

``bench_oracle_throughput.py`` measures the oracle's *in-process* query
paths; this module measures what a deployment actually gets.  Each
serving mode is the server the CLI ships, booted as a child process on
an ephemeral port:

* **threaded** — ``python -m repro.oracle serve ARTIFACT --port 0
  --quiet``: one ``ThreadingHTTPServer`` (one thread per connection);
* **prefork4** — the same with ``--workers 4``: four forked threaded
  workers on one shared listening socket, the scale-out mode.

Both children run at once.  Concurrent persistent-connection clients in
this process drive real HTTP/1.1 requests on localhost, alternating
between the two modes over ``ROUNDS`` interleaved rounds per shape:

* **scalar** — ``GET /v1/violation?...`` one query per request, the
  latency-sensitive interactive path;
* **batch** — ``POST /v1/violation`` with columnar arrays, the
  throughput path (one NumPy gather answers the whole body).

The gates, ``bench_config.SERVING_GATES``, are checked here
(``slo.met``, the pytest entry and ``main()``) and by ``run_all.py``:

* threaded batch sustains >= 50 000 queries/second over the wire (the
  median round); HTTP framing must not eat the batch advantage;
* prefork4 batch >= factor x threaded batch, the median of the
  per-round ratios, where the factor scales with the cores the host
  actually has: 2.0 with >= 4 cores (the CI shape), 1.2 with 2-3, and
  0.5 on a single core (four processes on one core can only add fork
  overhead — the floor then only guards against pathological collapse;
  ``cpu_count`` is recorded so readers can see which regime produced
  the number);
* error rate is exactly 0 across every request of the run;
* a golden query set (successes *and* errors) returns byte-identical
  bodies from both modes — the serving tier's parity contract;
* the threaded server's ``/metrics`` endpoint counted the load it
  served.

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
import functools
import json
import os
import pathlib
import sys
import tempfile
import threading
import time
from http.client import HTTPConnection

from bench_config import (
    BATCH_HTTP_FLOOR,
    ERROR_RATE_MAX,
    REPO_ROOT,
    ROUNDS,
    SERVING_GATES,
    check_gates,
    random_queries,
    spawn,
    stop,
    timed,
)

if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.oracle import (  # noqa: E402
    SettlementOracle,
    TINY_SPEC,
    build_tables,
)
from repro.oracle.app import OracleApp  # noqa: E402

#: The serving artifact: tiny grid, no MC cross-check (pure DP build).
SERVING_SPEC = dataclasses.replace(
    TINY_SPEC, mc_trials=0, mc_depths=(), mc_target_se=0.0
)

QUERY_SEED = 20200707
PREFORK_WORKERS = 4
#: ``repro.oracle serve`` flags per serving mode, threaded first: the
#: prefork ratio is prefork's speedup over it.
MODES = {"threaded": (), "prefork4": ("--workers", str(PREFORK_WORKERS))}

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


def _load(address, clients: int, requester, sink: dict) -> None:
    """One load pass: ``requester(connection, client_index)`` runs on
    ``clients`` persistent connections at once.  Each returns
    ``(latencies, errors)`` for its connection; both go into ``sink``."""
    results = [None] * clients

    def client(index: int) -> None:
        connection = HTTPConnection(*address, timeout=60)
        try:
            results[index] = requester(connection, index)
        finally:
            connection.close()

    threads = [
        threading.Thread(target=client, args=(index,))
        for index in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for latencies, errors in results:
        sink["latencies"].extend(latencies)
        sink["errors"] += errors


def _shape_entry(sink: dict, seconds: dict) -> dict:
    """One mode's record for one query shape over every load pass;
    ``seconds`` are the passes' times."""
    latencies = sorted(sink["latencies"])
    return {
        "requests": len(latencies) + sink["errors"],
        "seconds": seconds,
        "p50_ms": _percentile_ms(latencies, 0.50),
        "p99_ms": _percentile_ms(latencies, 0.99),
        "errors": sink["errors"],
    }


def _metrics_counted(address) -> bool:
    """Whether the server's ``/metrics`` exposition counted requests."""
    connection = HTTPConnection(*address, timeout=60)
    try:
        connection.request("GET", "/metrics")
        response = connection.getresponse()
        exposition = response.read().decode()
    finally:
        connection.close()
    return (
        response.status == 200
        and "repro_oracle_requests_total" in exposition
        and "repro_oracle_request_seconds_bucket" in exposition
    )


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


def _batch_encode_record(
    oracle, batch_size: int = 2_000, repeats: int = 50
) -> dict:
    """The batch-route encode micro-benchmark on the served artifact:
    ``json.dumps`` of the answers (the replaced encoding) vs the cell
    splice the route now uses.  Both must write the same bytes."""
    columns = random_queries(
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
    (dumps_s, splice_s), (speedup,), _ = timed(repeats, dumps, splice)
    return {
        "batch_size": batch_size,
        "byte_identical": True,
        "dumps_seconds": dumps_s,
        "splice_seconds": splice_s,
        "speedup": speedup,
    }


# ----------------------------------------------------------------------
# The record
# ----------------------------------------------------------------------


def serving_record(quick: bool) -> dict:
    """Build, serve, and load-test both modes; the ``serving`` record."""
    # The same connections in both modes.  Each new connection goes to
    # whichever prefork worker accepts it first, so a round can put
    # every connection on one process and read near 1.0x; the median
    # over the rounds is gated.
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
        # thread-safe; the load threads only read).
        scalar_queries = [
            list(zip(*random_queries(spec, scalar_requests, rng)))
            for _ in range(clients)
        ]
        batch_payloads = []
        for _ in range(clients):
            alphas, fractions, deltas, depths = random_queries(
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
        sinks = {
            (mode, shape): {"latencies": [], "errors": 0}
            for mode in MODES
            for shape in ("scalar", "batch")
        }
        servers = {}
        try:
            for mode, flags in MODES.items():
                servers[mode] = spawn(
                    "repro.oracle", "serve", directory, "--port", "0",
                    "--quiet", *flags,
                )

            def passes(shape, requester):
                return [
                    functools.partial(
                        _load, address, clients, requester, sinks[mode, shape]
                    )
                    for mode, (_, address) in servers.items()
                ]

            scalar_seconds, _, _ = timed(
                ROUNDS, *passes("scalar", scalar_requester)
            )
            batch_seconds, (prefork_speedup,), _ = timed(
                ROUNDS, *passes("batch", batch_requester)
            )
            transcripts = {
                mode: _mode_transcript(address)
                for mode, (_, address) in servers.items()
            }
            metrics_ok = _metrics_counted(servers["threaded"][1])
        finally:
            for process, _ in servers.values():
                stop(process)

    modes = {}
    for index, mode in enumerate(MODES):
        scalar = _shape_entry(sinks[mode, "scalar"], scalar_seconds[index])
        scalar["requests_per_second"] = round(
            clients * scalar_requests / scalar_seconds[index]["median"], 1
        )
        batch = _shape_entry(sinks[mode, "batch"], batch_seconds[index])
        batch["batch_size"] = batch_size
        batch["queries_per_second"] = round(
            clients * batch_requests * batch_size
            / batch_seconds[index]["median"],
            1,
        )
        modes[mode] = {"clients": clients, "scalar": scalar, "batch": batch}
    modes["prefork4"]["workers"] = PREFORK_WORKERS

    total_requests = sum(
        entry[shape]["requests"]
        for entry in modes.values()
        for shape in ("scalar", "batch")
    )
    total_errors = sum(sink["errors"] for sink in sinks.values())
    cpu_count = os.cpu_count()
    record = {
        "artifact_cells": int(oracle.tables.forward.size),
        "quick": quick,
        "cpu_count": cpu_count,
        "modes": modes,
        "prefork_batch_speedup": prefork_speedup,
        "answers_identical_across_modes": (
            transcripts["prefork4"] == transcripts["threaded"]
        ),
        "batch_encode": batch_encode,
        "error_rate": total_errors / total_requests,
        "metrics_endpoint_counted_load": metrics_ok,
        "slo": {
            "batch_queries_per_second_floor": BATCH_HTTP_FLOOR,
            "prefork_batch_speedup_floor": prefork_speedup_floor(cpu_count),
            "error_rate_max": ERROR_RATE_MAX,
        },
    }
    record["slo"]["met"] = all(
        gate.check({"serving": record})[2] for gate in SERVING_GATES
    )
    return record


def test_serving_meets_slo_floors():
    """The pytest entry the full bench suite collects."""
    record = serving_record(quick=True)
    assert check_gates(SERVING_GATES, {"serving": record}), record
    assert record["batch_encode"]["speedup"]["median"] > 1.0, record


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
    print(f"serving record merged into {out}")
    return 0 if check_gates(SERVING_GATES, {"serving": record}) else 1


if __name__ == "__main__":
    raise SystemExit(main())
