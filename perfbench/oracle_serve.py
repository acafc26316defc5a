"""The oracle-serve workload: build the settlement tables cold, start
``python -m repro.oracle serve`` as a child, and drive it over HTTP
from the load generator process.

The table grid is a DP-only sub-grid of ``DEFAULT_SPEC``: one
(α, fraction, Δ = 2) combination with every depth to 200, fixed so that
every run builds the same cells.  The seed makes the query stream:
off-grid points inside the table's conservative hull.  Serving runs in
rounds, with a rebuild between rounds: scalar GETs open loop at a few
fixed rates, then columnar POST batches closed loop on one connection.
Builds (DP work: the ``grid`` loop), server starts and serving phases
(interpreter work: the ``python`` loop) are scaled to the reference
speed by the reference-loop readings around them (``speed.py``).
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import os
import random
import re
import resource
import signal
import subprocess
import sys
import time

import checks
import layers
import speed
import stats
from tracing import Tracer, totals_by_name

HERE = os.path.dirname(os.path.abspath(__file__))

#: Offered scalar rates (req/s).  p50 and p99 are reported at
#: ``REFERENCE_RATE``, which is below saturation on a one-core server.
SCALAR_RATES = (250, 500, 1000, 2000)
REFERENCE_RATE = 500
#: The p99 latency limit (ms) for ``scalar_max_rps``.
LATENCY_LIMIT_MS = 5.0
#: Serving rounds per run; each offers every rate for ``ROUND_SHARE`` of
#: the run's seconds (at least ``ROUND_MIN_SECONDS``), then batches for
#: twice as long.  Five rounds at 500 req/s give >= 1000 requests, enough
#: for a p99 with ten samples beyond it.  The tables are rebuilt (into a
#: spare directory) before every round after the first: five builds.
ROUNDS = 5
ROUND_SHARE = 0.02
ROUND_MIN_SECONDS = 0.4
#: A traced run's single scalar phase at the reference rate lasts at
#: least this long.
REFERENCE_SECONDS = 2.0
#: Traced builds in a traced run, each followed by an untraced one.
TRACED_BUILDS = 2
BATCH_WIDTH = 2000
DISTINCT_BATCHES = 4
DISTINCT_SCALARS = 4000
#: Queries checked against a fresh exact DP at their own coordinates.
DOMINANCE_SAMPLE = 6
SERVER_STARTS = 5
#: Closed-loop batches per server in a traced run (a fixed amount of
#: work, so traced and untraced walls compare).
TRACED_BATCHES = 60


def spec():
    from repro.oracle.tables import DEFAULT_SPEC

    return dataclasses.replace(
        DEFAULT_SPEC,
        alphas=(0.30,),
        unique_fractions=(0.9,),
        deltas=(2,),
        mc_depths=(),
        mc_trials=0,
        mc_target_se=0.0,
    )


def make_queries(seed: int, table_spec, count: int) -> list[list]:
    """Seeded off-grid queries inside the table's conservative hull."""
    rng = random.Random(seed)
    alphas, fractions = table_spec.alphas, table_spec.unique_fractions
    depths = table_spec.depths
    return [
        [
            rng.uniform(alphas[-1] / 3, alphas[-1]),
            rng.uniform(fractions[0], 1.0),
            rng.randint(0, table_spec.deltas[-1]),
            rng.randint(depths[0], depths[-1] + depths[-1] // 4),
        ]
        for _ in range(count)
    ]


def as_batches(queries, width: int) -> list[dict]:
    batches = []
    for start in range(0, len(queries), width):
        chunk = queries[start:start + width]
        batches.append(
            {
                name: [query[i] for query in chunk]
                for i, name in enumerate(
                    ("alpha", "unique_fraction", "delta", "depth")
                )
            }
        )
    return batches


def scaled_records(phase) -> list[tuple]:
    """A scalar phase's ``(due, sent, done, ok)`` records with the times
    scaled to the reference speed."""
    factor = speed.scale("python", 1.0, *phase["loops"])
    return [
        (due * factor, sent * factor, done * factor, ok)
        for due, sent, done, ok in phase["records"]
    ]


class Server:
    """One ``repro.oracle serve`` child on an ephemeral port."""

    def __init__(self, root, artifact, trace_path=None) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), env.get("PYTHONPATH")])
        )
        env["PYTHONUNBUFFERED"] = "1"
        serve = ["serve", str(artifact), "--port", "0", "--quiet"]
        if trace_path is None:
            command = [sys.executable, "-m", "repro.oracle", *serve]
        else:
            script = os.path.join(HERE, "traced_server.py")
            command = [sys.executable, script, str(trace_path), *serve]
        loop_before = speed.reference_loop("python")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=root, env=env, stdout=subprocess.PIPE, text=True
        )
        try:
            line = self.process.stdout.readline()
            match = re.search(r"http://([\d.]+):(\d+)", line)
            if match is None:
                raise RuntimeError(f"oracle server did not start: {line!r}")
            self.host, self.port = match.group(1), int(match.group(2))
            self._wait_healthy(deadline=time.perf_counter() + 60)
        except BaseException:
            self.stop()
            raise
        self.startup_s = time.perf_counter() - started
        self.startup_scaled_s = speed.scale(
            "python", self.startup_s, loop_before,
            speed.reference_loop("python"),
        )

    def _wait_healthy(self, deadline: float) -> None:
        while True:
            connection = http.client.HTTPConnection(self.host, self.port, timeout=5)
            try:
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                response.read()
                if response.status == 200:
                    return
            except OSError:
                pass
            finally:
                connection.close()
            if time.perf_counter() > deadline or self.process.poll() is not None:
                raise RuntimeError("oracle server never answered /healthz")
            time.sleep(0.002)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM for the oracle server")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


def run_loadgen(server, plan: dict, workdir, label: str) -> dict:
    plan = dict(plan, host=server.host, port=server.port)
    plan_path = workdir / f"plan-{label}.json"
    result_path = workdir / f"result-{label}.json"
    plan_path.write_text(json.dumps(plan))
    subprocess.run(
        [sys.executable, os.path.join(HERE, "loadgen.py"),
         str(plan_path), str(result_path)],
        check=True,
        timeout=150,
    )
    return json.loads(result_path.read_text())


class OracleServe:
    name = "oracle-serve"

    def __init__(self, seed: int, root, workdir) -> None:
        from repro.oracle import tables

        self.tables = tables
        self.root = root
        self.workdir = workdir
        self.spec = spec()
        self.artifact = workdir / "artifact"
        self.scalars = make_queries(seed, self.spec, DISTINCT_SCALARS)
        self.batches = as_batches(
            make_queries(seed + 1, self.spec, BATCH_WIDTH * DISTINCT_BATCHES),
            BATCH_WIDTH,
        )
        self.connections = min(2, os.cpu_count() or 1)
        self.failures: list[str] = []
        self.attempted = 0

    # -- phases -------------------------------------------------------

    def build(self, out_dir=None) -> tuple[float, float]:
        """Build the tables; ``(raw, scaled)`` seconds."""
        watch = speed.Stopwatch("grid")
        watch.time(
            "build", self.tables.build_tables,
            self.spec, out_dir=out_dir or self.artifact, force=True,
        )
        return watch.raw["build"], watch.scaled["build"]

    def plan(self, phases) -> dict:
        return {
            "connections": self.connections,
            "queries": self.scalars,
            "batches": self.batches,
            "phases": phases,
        }

    def round_plan(self, seconds: float) -> dict:
        """One serving round: every offered rate, then a batch phase."""
        share = max(ROUND_MIN_SECONDS, ROUND_SHARE * seconds)
        phases = [
            {"kind": "scalar", "rate": rate, "seconds": share}
            for rate in SCALAR_RATES
        ]
        phases.append({"kind": "batch", "seconds": share * 2})
        return self.plan(phases)

    def verify(self, result: dict) -> int:
        """Check served answers; returns the number of failed requests."""
        from repro.oracle.service import SettlementOracle

        oracle = SettlementOracle.load(self.artifact)
        failed = 0
        for phase in result["phases"]:
            if phase["kind"] == "batch":
                self.attempted += phase["sent"]
                failed += phase["failed"]
                for columns, answers in zip(self.batches, phase["answers"]):
                    if answers is None:
                        continue
                    expected = oracle.violation_probabilities(
                        columns["alpha"], columns["unique_fraction"],
                        columns["delta"], columns["depth"],
                    ).tolist()
                    self.failures += checks.check_served(answers, expected)
                continue
            served, expected = [], []
            for index, (*_times, ok) in enumerate(phase["records"]):
                self.attempted += 1
                if not ok:
                    failed += 1
                    continue
                a, f, d, k = self.scalars[index % len(self.scalars)]
                served.append(phase["answers"][index])
                expected.append(oracle.violation_probability(a, f, d, k))
            self.failures += checks.check_served(served, expected)
        return failed

    def verify_dominance(self) -> None:
        """A sample of answers is at least the exact DP at the query."""
        from repro.analysis.exact import settlement_violation_probability
        from repro.oracle.service import SettlementOracle

        oracle = SettlementOracle.load(self.artifact)
        sample = self.scalars[:DOMINANCE_SAMPLE]
        served = [oracle.violation_probability(*query) for query in sample]
        exact = [
            settlement_violation_probability(
                self.tables.effective_probabilities(a, f, d, self.spec.activity),
                k,
            )
            for a, f, d, k in sample
        ]
        self.attempted += len(sample)
        self.failures += checks.check_dominates(served, exact)

    # -- the two kinds of run -----------------------------------------

    def run(self, seconds: float):
        """Cold build, set-up, then serving rounds with a rebuild into a
        spare directory between rounds: each metric samples the whole
        run, not one stretch of it."""
        builds = [self.build()]
        servers, results = [], []
        try:
            for _ in range(SERVER_STARTS):
                if servers:
                    servers[-1].stop()
                servers.append(Server(self.root, self.artifact))
            server = servers[-1]
            for index in range(ROUNDS):
                if index:
                    builds.append(self.build(self.workdir / f"rebuild-{index}"))
                results.append(
                    run_loadgen(
                        server, self.round_plan(seconds), self.workdir, f"round-{index}"
                    )
                )
            server_rss = server.peak_rss_mb()
        finally:
            if servers:
                servers[-1].stop()
        failed = sum(self.verify(result) for result in results)
        self.verify_dominance()
        phases = [phase for result in results for phase in result["phases"]]
        by_rate = {
            rate: stats.open_loop_summary(
                [
                    scaled_records(phase)
                    for phase in phases
                    if phase.get("rate") == rate
                ],
                LATENCY_LIMIT_MS,
            )
            for rate in SCALAR_RATES
        }
        reference = by_rate[REFERENCE_RATE]
        meeting = [rate for rate, s in by_rate.items() if s["meets_limit"]]
        # Batch throughput is the width over the median batch latency
        # of all batch phases: hundreds of samples, where the phases'
        # own rates would be five.
        batch_phases = [phase for phase in phases if phase["kind"] == "batch"]
        batch_s = stats.median(
            [
                speed.scale("python", latency, *phase["loops"])
                for phase in batch_phases
                for latency in phase["latencies_s"]
            ]
        )
        batch_s_raw = stats.median(
            [latency for phase in batch_phases for latency in phase["latencies_s"]]
        )
        batch_qps, batch_qps_raw = BATCH_WIDTH / batch_s, BATCH_WIDTH / batch_s_raw
        p50_raw = stats.open_loop_summary(
            [
                [tuple(record) for record in phase["records"]]
                for phase in phases
                if phase.get("rate") == REFERENCE_RATE
            ],
            LATENCY_LIMIT_MS,
        )["p50_ms"]
        build_s = stats.median([scaled for _raw, scaled in builds])
        own_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        tail = reference["tail_per_mille"]
        named = [
            ("oracle_build_s", build_s, "s"),
            ("oracle_build_s_raw", stats.median([raw for raw, _ in builds]), "s"),
            ("scalar_p50_ms", reference["p50_ms"], "ms"),
            ("scalar_p50_ms_raw", p50_raw, "ms"),
            (f"scalar_p{tail / 10:g}_ms", reference["tail_ms"], "ms"),
            ("scalar_max_rps", max(meeting, default=0), "1/s"),
            ("batch_queries_per_s", batch_qps, "1/s"),
            ("batch_queries_per_s_raw", batch_qps_raw, "1/s"),
            ("loadgen_late_ms", reference["late_ms"], "ms"),
            ("setup_s_raw", stats.median([s.startup_s for s in servers]), "s"),
        ]
        for rate, summary in by_rate.items():
            named.append(
                (f"scalar_at_{rate}_p{summary['tail_per_mille'] / 10:g}_ms",
                 summary["tail_ms"], "ms")
            )
        e2e = {
            "setup_s": stats.median([s.startup_scaled_s for s in servers]),
            "peak_rss_mb": own_rss + server_rss,
            "primary_ms": reference["p50_ms"],
            "secondary_ms": build_s * 1e3,
            "work_per_s": batch_qps,
        }
        return named, e2e, failed

    def run_traced(self, seconds: float):
        # The cold first build only warms up and writes the artifact;
        # traced and untraced builds then alternate.
        self.build()
        tracer = Tracer()
        traced_builds, untraced_builds = [], []
        for _ in range(TRACED_BUILDS):
            layers.instrument(tracer, layers.IN_PROCESS)
            try:
                traced_builds.append(self.build()[1])
            finally:
                tracer.restore()
            untraced_builds.append(self.build()[1])
        trace_path = self.workdir / "server-trace.json"
        plan = self.plan(
            [
                {"kind": "scalar", "rate": REFERENCE_RATE,
                 "seconds": max(REFERENCE_SECONDS, 0.2 * seconds)},
                {"kind": "batch", "count": TRACED_BATCHES},
            ]
        )
        results = {}
        for label, path in (("untraced", None), ("traced", trace_path)):
            server = Server(self.root, self.artifact, trace_path=path)
            try:
                results[label] = run_loadgen(server, plan, self.workdir, label)
            finally:
                server.stop()
        failed = sum(self.verify(result) for result in results.values())
        server_spans = Tracer.load(trace_path).spans()
        values = layers.in_process_metrics(
            totals_by_name(tracer.spans()), tracer.counters, TRACED_BUILDS
        )
        values.update(layers.server_metrics(totals_by_name(server_spans)))
        values["store.load_s"] = sum(
            s.duration for s in server_spans if s.name == "store.load_tables"
        )
        scalar, batch = results["traced"]["phases"]
        client_ms = [
            (done - sent) * 1e3 for _due, sent, done, ok in scalar["records"] if ok
        ]
        handled_ms = [
            s.duration * 1e3
            for s in server_spans
            if s.name == "app.handle" and s.work == 0.0
        ]
        values["http.transport_ms"] = (
            sum(client_ms) / len(client_ms) - sum(handled_ms) / len(handled_ms)
        )
        values["http.errors"] = float(failed)
        untraced_scalar, untraced_batch = results["untraced"]["phases"]
        values["loadgen.late_ms"] = stats.open_loop_summary(
            [[tuple(r) for r in untraced_scalar["records"]]], LATENCY_LIMIT_MS
        )["late_ms"]
        values["trace.overhead_ratio"] = (
            stats.median(traced_builds) + speed.scale("python", batch["wall_s"], *batch["loops"])
        ) / (
            stats.median(untraced_builds)
            + speed.scale("python", untraced_batch["wall_s"], *untraced_batch["loops"])
        )
        tracer.dump(self.workdir.parent / f"{self.name}-trace.json")
        return values, failed
