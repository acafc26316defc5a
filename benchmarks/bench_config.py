"""Shared configuration and helpers for the benchmark suite.

Every bench takes its RNG seeds and trial counts from here instead of
hard-coded literals, so one edit re-scales or re-seeds the whole suite
(and `run_all.py --quick` can shrink it uniformly via the TRIALS
dictionary).  Seeds are arbitrary but fixed: the suite is deterministic
run-to-run.

The helpers are the suite's one way to time a claim (:func:`timed`,
scaled by :func:`reference_seconds` where an absolute rate is kept),
one way to check it (:class:`Gate`, :func:`check_gates`, and the gate
tables ``GATES`` and ``SERVING_GATES``), one way to draw oracle queries
(:func:`random_queries`), and one way to start a ``python -m`` server
child that announces its port (:func:`spawn`, :func:`stop`).  This
module imports only the standard library, so the gate tables load
without the benches' import-time set-up.
"""

import dataclasses
import operator
import os
import pathlib
import re
import signal
import statistics
import subprocess
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Interleaved rounds behind every timing of ``run_all.py`` and the
#: serving bench (see :func:`timed`).
ROUNDS = 5

#: Per-experiment seeds (one namespace per bench file).  Sweep-driven
#: benches (bounds-vs-exact, delta, table1 Monte Carlo) take their seeds
#: from the registered grids in repro.engine.sweeps instead — the grid
#: seed is part of the result-cache key, so it lives with the grid.
SEEDS = {
    "cp_measured_rate": 77,
    "cp_bivalent_windows": 31,
    "fig4_throughput": 1000,  # per-length offset added by the bench
    "fig4_canonicality": 7,
    # Protocol benches run through the engine's ProtocolRunner since
    # PR 3, so they take integer seeds (the spawned seed-tree contract).
    "protocol_attack": 2024,
    "protocol_fork_extraction": "extract",  # direct Simulation, string seed
    "tiebreak_ablation": 808,
    "engine_scalar_vs_batched": 2020,
    "protocol_e10": 4242,
    # Random (off-grid) settlement-oracle queries; the artifact's own
    # Monte-Carlo seed lives in the OracleSpec (it is part of the
    # artifact fingerprint, so it belongs to the spec, not here).
    "oracle_queries": 6060,
}

#: Per-experiment trial counts.
TRIALS = {
    "bounds_vs_exact_mc": 20000,
    "cp_measured_rate": 600,
    "cp_bivalent_windows": 300,
    "delta_sweep_rate": 250,
    "protocol_attack": 15,
    "tiebreak_ablation": 8,
    # The protocol-throughput record (E10 workload through the
    # ProtocolRunner):
    "protocol_e10_trials": 16,
    # Per-point trials for the Monte-Carlo sweep grids (bench-sized;
    # the grids' own defaults are the production sizes):
    "table1_mc_sweep": 20000,
    # The settlement-oracle throughput record (E11):
    "oracle_batch_queries": 200000,
    "oracle_single_queries": 2000,
}


def _reference_loop() -> None:
    table = {}
    total = 0
    for i in range(60_000):
        total += i & 7
        table[i & 255] = total


#: Seconds :func:`reference_seconds`' loop takes on the reference host
#: (2-vCPU x86-64 container, CPython 3.11) with nothing else running.
#: The loop and its nominal time are those of perfbench's ``python``
#: loop, so the scaled rates here and perfbench's share one reference.
REFERENCE_LOOP_SECONDS = 0.0065


def reference_seconds() -> float:
    """Seconds one pass of an interpreter-bound reference loop (dict
    stores and integer arithmetic, no repro code) takes now."""
    start = time.perf_counter()
    _reference_loop()
    return time.perf_counter() - start


def timed(rounds, *callables, units=None, reference=False):
    """Time ``callables`` over ``rounds`` interleaved rounds.

    Each round calls every callable once, in order, so a change in host
    speed moves every callable of a round alike.  Returns ``(spreads,
    ratios, results)``:

    * ``spreads`` — per callable, ``{median, min, max, repeats}`` of its
      call times in seconds; with ``reference=True`` also ``scaled``,
      the same summary of its times at the reference speed (below);
    * ``ratios`` — per callable after the first, the same summary of
      its per-round speedup over the first, ``time(first) /
      time(callable)`` per unit of work (``units`` gives each
      callable's units per call, 1 by default).  Drift between rounds
      cancels within a round, so every ratio gate reads the median;
    * ``results`` — each callable's return value from the last round.

    ``reference=True`` is for interpreter-bound callables, whose
    absolute rates would otherwise mostly show the host: each call is
    bracketed by :func:`reference_seconds` readings (the reading after
    one call is the one before the next), and its scaled time is
    ``elapsed · REFERENCE_LOOP_SECONDS / mean(before, after)``, the time
    it would take where the loop takes its nominal time.  A change in
    host speed moves the call and the loop alike and cancels.

    Every summary value is rounded to four significant digits.
    """
    units = units or (1,) * len(callables)
    times = [[] for _ in callables]
    scaled = [[] for _ in callables]
    results = [None] * len(callables)
    loop = reference_seconds() if reference else 0.0
    for _ in range(rounds):
        for index, callable_ in enumerate(callables):
            start = time.perf_counter()
            results[index] = callable_()
            elapsed = time.perf_counter() - start
            times[index].append(elapsed)
            if reference:
                after = reference_seconds()
                scaled[index].append(
                    elapsed * REFERENCE_LOOP_SECONDS * 2.0 / (loop + after)
                )
                loop = after

    def spread(sample):
        return {
            "median": float(f"{statistics.median(sample):.4g}"),
            "min": float(f"{min(sample):.4g}"),
            "max": float(f"{max(sample):.4g}"),
            "repeats": rounds,
        }

    first = [seconds / units[0] for seconds in times[0]]
    ratios = [
        spread(
            [base / (seconds / count) for base, seconds in zip(first, sample)]
        )
        for sample, count in zip(times[1:], units[1:])
    ]
    spreads = [spread(sample) for sample in times]
    if reference:
        for summary, sample in zip(spreads, scaled):
            summary["scaled"] = spread(sample)
    return spreads, ratios, results


def random_queries(spec, count: int, rng):
    """Columnar random queries inside an oracle spec's conservative
    hull: ``count`` each of α, unique fraction, Δ and k drawn uniformly
    from ``rng`` (a ``numpy.random.Generator``), in that order."""
    alphas = rng.uniform(spec.alphas[0], spec.alphas[-1], count)
    fractions = rng.uniform(
        spec.unique_fractions[0], spec.unique_fractions[-1], count
    )
    deltas = rng.uniform(spec.deltas[0], spec.deltas[-1], count)
    depths = rng.uniform(spec.depths[0], spec.depths[-1], count)
    return alphas, fractions, deltas, depths


_COMPARE = {">=": operator.ge, "<=": operator.le, "==": operator.eq}


@dataclasses.dataclass(frozen=True)
class Gate:
    """One checked claim of a record.

    The value at ``key`` (a dotted path into the record) must compare
    by ``op`` (``">="``, ``"<="`` or ``"=="``) with ``bound``: a
    constant, or a function of the record for a floor the record itself
    carries.  ``message`` says what a failure means.
    """

    name: str
    key: str
    op: str
    bound: object
    message: str

    def check(self, record) -> tuple:
        """``(value, bound, passed)`` on ``record``; a path the record
        lacks raises ``KeyError`` or ``TypeError``."""
        value = record
        for part in self.key.split("."):
            value = value[part]
        bound = self.bound(record) if callable(self.bound) else self.bound
        return value, bound, _COMPARE[self.op](value, bound)


def check_gates(gates, record) -> bool:
    """Check every gate on ``record``, print one line per gate, and
    return whether all passed (a failing gate does not stop the rest)."""
    passed = True
    for gate in gates:
        value, bound, ok = gate.check(record)
        verdict = "PASS" if ok else f"FAIL ({gate.message})"
        print(f"{gate.name}: {value!r} {gate.op} {bound!r} {verdict}")
        passed = passed and ok
    return passed


#: Serving floors (``bench_oracle_serving.py``): over-HTTP batch
#: queries/s of the threaded server, and the error rate under load.
BATCH_HTTP_FLOOR = 50_000.0
ERROR_RATE_MAX = 0.0

#: The serving gates, on a record holding the serving bench's record at
#: ``"serving"`` (as ``BENCH_engine.json`` does).
SERVING_GATES = (
    Gate("serving threaded batch q/s",
         "serving.modes.threaded.batch.queries_per_second", ">=",
         BATCH_HTTP_FLOOR,
         "oracle serving batch path below the 50k queries/s over-HTTP floor"),
    Gate("serving prefork4/threaded batch",
         "serving.prefork_batch_speedup.median", ">=",
         lambda record: record["serving"]["slo"][
             "prefork_batch_speedup_floor"],
         "prefork serving batch path below its core-count speedup floor"),
    Gate("serving byte parity", "serving.answers_identical_across_modes",
         "==", True,
         "serving modes returned different bytes on the golden request set"),
    Gate("serving error rate", "serving.error_rate", "<=", ERROR_RATE_MAX,
         "oracle serving returned errors under load"),
    Gate("serving /metrics", "serving.metrics_endpoint_counted_load", "==",
         True, "/metrics did not account for the serving load"),
)

#: Every floor of BENCH_engine.json, which ``run_all.py`` checks after
#: all records are written.  A ratio gate reads the median of its
#: per-round ratios.
GATES = (
    Gate("adaptive trial savings", "adaptive.trials_ratio", ">=", 3,
         "adaptive runs below the 3x trial-savings floor"),
    Gate("adaptive max SE", "adaptive.se_no_worse", "==", True,
         "adaptive max standard error exceeds the fixed run's"),
    Gate("warm-ledger extension",
         "adaptive.warm_extension_resamples_only_new_chunks", "==", True,
         "warm-ledger trials bump re-sampled previously ledgered chunks"),
    Gate("Table 1 digits", "exact.printed_mismatches", "==", [],
         "exact DP does not reproduce Table 1's printed digits"),
    Gate("oracle no-op rebuild", "oracle.rebuild_noop", "==", True,
         "identical oracle rebuild re-ran instead of no-op"),
    Gate("oracle scalar/DP per query", "oracle.per_query_speedup.median",
         ">=", 100, "oracle scalar query below the 100x-over-DP floor"),
    Gate("oracle batch q/s", "oracle.batch_queries_per_second", ">=", 50_000,
         "oracle batch path below the 50k queries/s floor"),
    *SERVING_GATES,
    Gate("backend estimates", "backend.identical_estimates", "==", True,
         "a backend changed the estimate"),
    Gate("distributed/process chunks/s",
         "backend.distributed_overhead_ratio.median", ">=", 0.5,
         "distributed backend below the 0.5x-of-process localhost floor"),
    Gate("wan degenerate config", "wan.degenerate_bit_identical", "==", True,
         "default-config Transport diverged from the slot-quantized model"),
    Gate("wan/slot trials/s", "wan.wan_over_slot_ratio.median", ">=", 0.5,
         "WAN transport below the 0.5x-of-slot-simulator throughput floor"),
    Gate("scheduler events/s", "wan.scheduler_events_per_second", ">=",
         lambda record: record["wan"]["slot_trials_per_second"] * 0.5,
         "event scheduler slower than half the slot simulator's trial rate"),
)


def child_env() -> dict:
    """This environment with the repo's ``src`` first on PYTHONPATH and
    unbuffered output, for ``python -m repro...`` children."""
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    return env


def spawn(*args) -> tuple:
    """Start ``python -m ARGS`` and read the ``host:port`` it announces
    on its first stdout line; ``(process, (host, port))``."""
    process = subprocess.Popen(
        [sys.executable, "-m", *args],
        stdout=subprocess.PIPE,
        text=True,
        env=child_env(),
    )
    line = process.stdout.readline()
    match = re.search(r"([\d.]+):(\d+)", line)
    if match is None:
        stop(process)
        raise RuntimeError(f"{args[0]} did not announce its port: {line!r}")
    return process, (match.group(1), int(match.group(2)))


def stop(process) -> None:
    """SIGTERM a :func:`spawn` child and reap it (SIGKILL after 30 s)."""
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    process.stdout.close()
