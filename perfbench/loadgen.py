"""Load generator for the oracle server, run as its own process.

    python3 perfbench/loadgen.py PLAN.json RESULT.json

The plan names the server, a seeded scalar query stream, a set of
columnar batches, and the phases to run in order: scalar phases at a
fixed offered rate, and batch phases.  Scalar phases run
open loop: request ``i`` of a phase at rate ``r`` is due ``i / r``
seconds after the phase starts, whether or not earlier requests have
finished, and is sent by connection ``i mod C``; each request is timed
from its due time.  The batch phase runs closed loop on one connection.
A refused, failed or non-200 request is recorded as failed.  Every
phase is bracketed by readings of the ``python`` reference loop
(``speed.py``), so its times can be scaled to the reference speed.
Only the standard library is used, so the generator's own cost stays
small and independent of the program under test.
"""

from __future__ import annotations

import http.client
import json
import sys
import threading
import time
from urllib.parse import urlencode

import speed


def _connect(host: str, port: int) -> http.client.HTTPConnection:
    connection = http.client.HTTPConnection(host, port, timeout=10)
    connection.connect()
    return connection


def _request(connection, method: str, path: str, body=None):
    headers = {"Content-Type": "application/json"} if body is not None else {}
    connection.request(method, path, body=body, headers=headers)
    response = connection.getresponse()
    return response.status, response.read()


def run_scalar_phase(host, port, queries, rate, seconds, connections):
    """Offer ``rate`` req/s for ``seconds``; ``(records, answers)`` with
    records ``(due, sent, done, ok)`` relative to the phase start."""
    total = max(1, int(rate * seconds))
    paths = [
        "/v1/violation?" + urlencode(
            {"alpha": a, "unique_fraction": f, "delta": d, "depth": k}
        )
        for a, f, d, k in queries
    ]
    records = [None] * total
    answers = [None] * total
    origin = time.perf_counter() + 0.05

    def worker(lane: int) -> None:
        connection = None
        for index in range(lane, total, connections):
            due = index / rate
            wait = origin + due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter() - origin
            ok = False
            try:
                if connection is None:
                    connection = _connect(host, port)
                status, body = _request(
                    connection, "GET", paths[index % len(paths)]
                )
                ok = status == 200
                if ok:
                    answers[index] = json.loads(body)["violation_probability"]
            except (OSError, http.client.HTTPException, ValueError, KeyError):
                if connection is not None:
                    connection.close()
                connection = None
            records[index] = (due, sent, time.perf_counter() - origin, ok)
        if connection is not None:
            connection.close()

    threads = [
        threading.Thread(target=worker, args=(lane,))
        for lane in range(connections)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records, answers


def run_batch_phase(host, port, batches, seconds=None, count=None):
    """Closed loop on one connection: send the batches in turn until
    ``seconds`` pass or ``count`` batches were sent."""
    bodies = [json.dumps(batch).encode() for batch in batches]
    first = [None] * len(bodies)
    latencies = []
    failed = queries = sent = 0
    connection = _connect(host, port)
    start = time.perf_counter()
    try:
        while True:
            if count is not None and sent >= count:
                break
            if count is None and time.perf_counter() - start >= seconds:
                break
            index = sent % len(bodies)
            sent += 1
            began = time.perf_counter()
            try:
                status, body = _request(
                    connection, "POST", "/v1/violation", bodies[index]
                )
            except (OSError, http.client.HTTPException):
                connection.close()
                connection = _connect(host, port)
                failed += 1
                continue
            latencies.append(time.perf_counter() - began)
            if status != 200:
                failed += 1
            elif first[index] is None:
                first[index] = body
                queries += len(batches[index]["alpha"])
            elif body != first[index]:
                failed += 1  # the same batch must get the same answer
            else:
                queries += len(batches[index]["alpha"])
    finally:
        connection.close()
    wall = time.perf_counter() - start
    answers = [
        json.loads(body)["violation_probability"] if body is not None else None
        for body in first
    ]
    return {
        "sent": sent,
        "failed": failed,
        "queries": queries,
        "wall_s": wall,
        "latencies_s": latencies,
        "answers": answers,
    }


def main(argv) -> int:
    plan_path, result_path = argv
    with open(plan_path) as handle:
        plan = json.load(handle)
    host, port = plan["host"], plan["port"]
    results = []
    for phase in plan["phases"]:
        loop_before = speed.reference_loop("python")
        if phase["kind"] == "scalar":
            records, answers = run_scalar_phase(
                host,
                port,
                plan["queries"],
                phase["rate"],
                phase["seconds"],
                plan["connections"],
            )
            results.append(dict(phase, records=records, answers=answers))
        else:
            results.append(
                dict(
                    phase,
                    **run_batch_phase(
                        host,
                        port,
                        plan["batches"],
                        seconds=phase.get("seconds"),
                        count=phase.get("count"),
                    ),
                )
            )
        results[-1]["loops"] = [loop_before, speed.reference_loop("python")]
    with open(result_path, "w") as handle:
        json.dump({"phases": results}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
