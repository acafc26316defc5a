"""Run the benchmark suite and record the engine performance baseline.

Nine jobs:

1. measure the protocol workload (engine layer 5): the E10 throughput
   scenario through ProtocolRunner (shared validation + hash-indexed
   predicates) — wall-clock and slots/s — plus the worker fan-out
   ratio and a "protocol" sweep-grid pass against the shared cache
   (warm rerun: zero re-estimation);
2. run the "table1" sweep grid through the orchestration layer
   (repro.engine.sweeps) against the on-disk result cache at
   .sweep-cache/, recording wall-clock, cache traffic, and — on a cold
   cache — the parallel-over-serial speedup.  A warm-cache rerun does
   ZERO re-estimation: every point is served from the cache;
3. run the Table-1 grid adaptively against the fixed budget — the
   "adaptive" record: >= 3x fewer total trials at equal-or-better max
   standard error, and a trials bump on the warm chunk ledger must
   re-sample only the new chunks (the prefix property);
4. build the tiny settlement-oracle artifact (adaptive MC cross-check
   through the shared cache), assert an identical rebuild is a no-op,
   and measure both query paths against recomputing the exact DP per
   query (floors: scalar >= 100x the DP, batch >= 50k queries/s) — the
   "oracle" record;
5. load-test the oracle server over localhost — threaded and
   prefork(4) threaded workers — with concurrent persistent-connection
   clients on the scalar GET and columnar-batch POST paths, recording
   sustained rates and client-observed p50/p99 latency per mode, with
   asserted SLO floors (threaded batch >= 50k queries/s *over the
   wire*, prefork batch >= a core-count-scaled multiple of threaded,
   byte-identical bodies across modes, error rate exactly 0, /metrics
   accounted for the load) — the "serving" record;
6. run one fixed workload on every execution backend — serial, process,
   and distributed (two localhost repro.worker subprocesses) — assert
   the three estimates identical, and record
   per-backend chunk throughput, the distributed-over-process overhead
   ratio (floor: >= 0.5x on localhost), and the hot-kernel
   micro-bench (reach kernels, and the slot-major margin scan at
   4096 x 40 and 4096 x 100, median of 5) — the "backend" record;
7. measure the continuous-time network layer — raw EventScheduler
   events/s, WAN-transport trials/s against the slot-quantized
   simulator's trials/s over interleaved slot/WAN pairs (floor on the
   median per-pair ratio: >= 0.5x — physics costs something, but not
   more than half the throughput), and the degenerate-configuration
   bit-identity assert — the "wan" record;
8. time the exact Section 6.6 DP — one banded sweep at alpha = 0.30,
   fraction 0.9 to k = 100, 200, 300 and 500 (median of 5, with min
   and max) and, outside --quick, the full 180-cell Table 1 — and
   assert that every read-out at k <= 400 prints Table 1's three
   digits — the "exact" record;
9. optionally execute the pytest benchmark suite (skipped with
   --perf-only; shrunk with --quick for CI).  The suite inherits the
   cache via $REPRO_SWEEP_CACHE, so its sweep-driven benches also skip
   already-computed points.

All records land in BENCH_engine.json at the repo root.

Usage:
    python benchmarks/run_all.py               # full: perf + sweep + suite
    python benchmarks/run_all.py --quick       # CI-sized subset
    python benchmarks/run_all.py --perf-only   # records only, no suite
    python benchmarks/run_all.py --workers 8   # sweep fan-out width
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from bench_config import SEEDS, TRIALS  # noqa: E402

from repro.engine.cache import CACHE_DIR_ENV, ResultCache  # noqa: E402
from repro.engine.parallel import ProcessBackend, SerialBackend  # noqa: E402
from repro.engine.protocol import ProtocolRunner  # noqa: E402
from repro.engine.scenarios import get_scenario  # noqa: E402
from repro.engine.sweeps import get_grid, run_grid  # noqa: E402
from repro.analysis.exact import (  # noqa: E402
    compute_settlement_probabilities,
    settlement_table,
    settlement_violation_probability,
)
from repro.core.distributions import from_adversarial_stake  # noqa: E402
from repro.data.table1 import PAPER_TABLE1  # noqa: E402
from repro.oracle import (  # noqa: E402
    SettlementOracle,
    TINY_SPEC,
    build_tables,
    effective_probabilities,
)

#: Interleaved slot/WAN timing pairs behind ``wan_over_slot_ratio``.
WAN_PAIRS = 5

SWEEP_CACHE_DIR = REPO_ROOT / ".sweep-cache"
ORACLE_ARTIFACT_DIR = REPO_ROOT / ".oracle-tables"


def _time(callable_, *args, **kwargs):
    start = time.perf_counter()
    result = callable_(*args, **kwargs)
    return time.perf_counter() - start, result


def _repeated(repeats, scale, digits, callable_, *args, **kwargs):
    """Time ``repeats`` calls: ``({median, min, max}, last result)``.

    Each time is multiplied by ``scale`` (1 for seconds, 1e3 for
    milliseconds) and rounded to ``digits`` places.
    """
    times = []
    for _ in range(repeats):
        seconds, result = _time(callable_, *args, **kwargs)
        times.append(seconds * scale)
    times.sort()
    spread = {
        "median": round(times[len(times) // 2], digits),
        "min": round(times[0], digits),
        "max": round(times[-1], digits),
    }
    return spread, result


def protocol_record(quick: bool, workers: int, backend) -> dict:
    """Protocol-throughput record of the E10 workload.

    "protocol-honest" (10 honest nodes, 200 synchronous slots) runs
    through ProtocolRunner — shared validation, hash-indexed consistency
    predicates, bucketed message scheduler.  A workers > 1 pass on
    ``backend`` records the process fan-out ratio (≈ 1 on single-core
    boxes — the record still tracks it).
    """
    scenario = get_scenario("protocol-honest")
    trials = max(TRIALS["protocol_e10_trials"] // (4 if quick else 1), 4)
    seed = SEEDS["protocol_e10"]

    runner = ProtocolRunner(scenario)
    runner.run(2, seed)  # warm-up: allocator, hash machinery, imports

    batched_s, batched = _time(runner.run, trials, seed)

    record = {
        "workload": "protocol-honest (E10 throughput)",
        "slots": scenario.total_slots,
        "parties": scenario.parties,
        "trials": trials,
        "batched_seconds": round(batched_s, 4),
        "slots_per_second": round(scenario.total_slots * trials / batched_s),
        "value": batched.value,
    }
    if workers > 1:
        parallel_s, parallel = _time(runner.run, trials, seed, backend)
        assert parallel == batched, "worker count changed the estimate"
        record["workers"] = workers
        record["parallel_seconds"] = round(parallel_s, 4)
        record["parallel_speedup"] = round(batched_s / parallel_s, 2)
    return record


def protocol_sweep_record(quick: bool, workers: int, backend) -> dict:
    """The "protocol" grid through run_grid + the shared result cache.

    Same contract as the table1 sweep record: cold points are estimated
    (fanned across workers when > 1), a warm rerun is served entirely
    from disk — zero re-execution of any simulation batch.
    """
    grid = get_grid("protocol")
    trials = max(grid.trials // (4 if quick else 1), 4)
    cache = ResultCache(SWEEP_CACHE_DIR)

    wall_s, rows = _time(
        run_grid, grid, trials=trials, cache=cache, backend=backend
    )
    misses = sum(1 for row in rows if not row["cached"])
    record = {
        "grid": grid.name,
        "points": len(rows),
        "trials_per_point": trials,
        "workers": workers,
        "wall_seconds": round(wall_s, 4),
        "cache_hits": len(rows) - misses,
        "cache_misses": misses,
    }
    if misses == 0:
        record["note"] = "warm cache: zero re-estimation"
    return record


def sweep_record(quick: bool, workers: int, backend) -> dict:
    """Orchestrated-sweep wall-clock and cache traffic (the PR 2 point).

    Runs the "table1" grid through the sweep layer with the persistent
    cache.  Cold cache: every point is estimated (in parallel when
    ``workers > 1``), then a serial uncached pass measures the baseline
    and the speedup is recorded.  Warm cache: zero re-estimation — the
    grid is served entirely from disk and only that fact is recorded.
    """
    grid = get_grid("table1")
    trials = grid.trials // (10 if quick else 1)
    cache = ResultCache(SWEEP_CACHE_DIR)

    wall_s, rows = _time(
        run_grid, grid, trials=trials, cache=cache, backend=backend
    )
    misses = sum(1 for row in rows if not row["cached"])
    record = {
        "grid": grid.name,
        "points": len(rows),
        "trials_per_point": trials,
        "workers": workers,
        "wall_seconds": round(wall_s, 4),
        "cache_hits": len(rows) - misses,
        "cache_misses": misses,
    }
    if misses == 0:
        record["note"] = "warm cache: zero re-estimation"
    elif misses < len(rows):
        # Partially warm: wall-clock covers only the missed points, so
        # no serial baseline or speedup would be comparable.
        record["note"] = "partially warm cache: speedup not comparable"
    elif workers == 1:
        # The timed run *was* a full serial pass; nothing to compare.
        record["serial_seconds"] = record["wall_seconds"]
    else:
        # Fully cold parallel run: a serial uncached pass gives the
        # like-for-like baseline the speedup is recorded against.
        serial_s, _ = _time(run_grid, grid, trials=trials)
        record["serial_seconds"] = round(serial_s, 4)
        record["parallel_speedup"] = round(serial_s / wall_s, 2)
    return record


def adaptive_record(quick: bool, backend) -> dict:
    """Adaptive precision targeting vs the fixed budget (the PR 5 point).

    Runs the Table-1 grid twice over a fresh chunk ledger: once with
    the fixed per-point budget, once adaptively with ``target_se`` set
    to the fixed run's *worst* standard error.  The adaptive run must
    reach equal-or-better max standard error while spending >= 3x fewer
    total trials (easy cells stop after their first waves; only the
    rare/hard cells run deep) — asserted by main().  A trials bump on
    the warm ledger is then asserted to re-sample only the new chunks:
    every old full chunk is served from the ledger bit-identically.

    The ledger lives in a throwaway directory (not .sweep-cache) so the
    cold-run arithmetic is deterministic even when the shared cache is
    already warm from an earlier invocation.
    """
    grid = dataclasses.replace(
        get_grid("table1"), name="table1-adaptive", chunk_size=256
    )
    trials = grid.trials // (10 if quick else 1)

    with tempfile.TemporaryDirectory(prefix="repro-ledger-") as ledger_dir:
        cache = ResultCache(ledger_dir)
        fixed_s, fixed = _time(
            run_grid, grid, trials=trials, cache=cache, backend=backend
        )
        target_se = max(row["standard_error"] for row in fixed)
        adaptive_s, adaptive = _time(
            run_grid,
            grid,
            trials=trials,
            cache=cache,
            backend=backend,
            target_se=target_se,
        )
        fixed_total = sum(row["trials"] for row in fixed)
        adaptive_total = sum(row["trials"] for row in adaptive)
        adaptive_max_se = max(row["standard_error"] for row in adaptive)
        # The adaptive pass ran over the fixed run's warm ledger, so its
        # chunk waves were served without sampling wherever they overlap.
        adaptive_sampled = sum(row["sampled_trials"] for row in adaptive)

        # Warm-ledger extension: bump the fixed budget and check that
        # only the new chunks are sampled (the prefix property).
        bump_cache = ResultCache(ledger_dir)
        bump_trials = 2 * trials
        _, bumped = _time(
            run_grid,
            grid,
            trials=bump_trials,
            cache=bump_cache,
            backend=backend,
        )
        old_full = (trials // grid.chunk_size) * grid.chunk_size
        extension_ok = all(
            row["reused_trials"] >= old_full
            and row["sampled_trials"] <= bump_trials - old_full
            for row in bumped
        )

    return {
        "grid": grid.name,
        "points": len(fixed),
        "chunk_size": grid.chunk_size,
        "fixed_trials_per_point": trials,
        "fixed_total_trials": fixed_total,
        "fixed_seconds": round(fixed_s, 4),
        "target_se": target_se,
        "adaptive_total_trials": adaptive_total,
        "adaptive_seconds": round(adaptive_s, 4),
        "adaptive_max_se": adaptive_max_se,
        "adaptive_sampled_trials": adaptive_sampled,
        "trials_ratio": round(fixed_total / adaptive_total, 2),
        "se_no_worse": adaptive_max_se <= target_se,
        "warm_extension_resamples_only_new_chunks": extension_ok,
    }


#: Law, depths and repeat count of the exact-DP timings.
EXACT_CELL = (0.9, 0.30)  # (unique fraction, alpha)
EXACT_DEPTHS = (100, 200, 300, 500)
EXACT_REPEATS = 5
KERNEL_REPEATS = 5


def _printed_mismatches(cells: dict) -> list[str]:
    """Cells at a printed depth (k <= 400) whose three digits differ from
    Table 1's; ``cells`` maps ``(fraction, alpha, k)`` to a value."""
    return [
        f"({fraction}, {alpha}, k={k}): {value:.2e} != paper "
        f"{PAPER_TABLE1[(fraction, alpha, k)]:.2e}"
        for (fraction, alpha, k), value in sorted(cells.items())
        if k <= 400
        and f"{value:.2e}" != f"{PAPER_TABLE1[(fraction, alpha, k)]:.2e}"
    ]


def exact_record(quick: bool) -> dict:
    """The exact-DP record (E1): banded Section 6.6 sweep timings.

    Each depth is one ``compute_settlement_probabilities`` sweep, timed
    EXACT_REPEATS times; the full 180-cell ``settlement_table()`` is timed
    once outside --quick.  Every read-out at a printed depth must match
    Table 1's digits; main() fails the run otherwise.
    """
    fraction, alpha = EXACT_CELL
    probabilities = from_adversarial_stake(alpha, fraction)
    cells = {}
    dp_seconds = {}
    for k in EXACT_DEPTHS:
        dp_seconds[str(k)], computation = _repeated(
            EXACT_REPEATS, 1.0, 5,
            compute_settlement_probabilities, probabilities, [k],
        )
        cells[(fraction, alpha, k)] = computation[k]
    record = {
        "law": {"alpha": alpha, "unique_fraction": fraction},
        "repeats": EXACT_REPEATS,
        "dp_seconds": dp_seconds,
    }
    if not quick:
        table_s, table = _time(settlement_table)
        cells.update(table)
        record["table1_seconds"] = round(table_s, 3)
        record["table1_cells"] = len(table)
    record["printed_cells_checked"] = sum(1 for key in cells if key[2] <= 400)
    record["printed_mismatches"] = _printed_mismatches(cells)
    return record


def oracle_record(quick: bool, backend) -> dict:
    """The settlement-oracle record (E11): build, no-op rebuild, QPS.

    Builds the tiny-preset artifact (the Monte-Carlo cross-check runs
    through run_grid against the shared .sweep-cache, so a warm rerun
    re-checks without re-estimating), asserts an identical rebuild is a
    manifest-level no-op, times five in-memory DP-only builds of the same
    grid (forward cells, minimal-depth rows and the Bound 1 analytic
    rows, no Monte Carlo), then measures the two query paths against the
    cost of recomputing the exact DP per query.  Floors — scalar ≥ 100x
    the DP, batch ≥ 50k queries/s — are asserted by main().
    """
    import numpy as np

    from bench_oracle_throughput import (
        BATCH_QUERIES,
        QUERY_SEED,
        SINGLE_QUERIES,
        random_queries,
    )

    cache = ResultCache(SWEEP_CACHE_DIR)
    build_s, report = _time(
        build_tables,
        TINY_SPEC,
        out_dir=ORACLE_ARTIFACT_DIR,
        cache=cache,
        backend=backend,
    )
    rebuild_s, rerun = _time(
        build_tables, TINY_SPEC, out_dir=ORACLE_ARTIFACT_DIR, cache=cache
    )
    assert not rerun.rebuilt, "identical rebuild was not a no-op"
    dp_build_ms, _ = _repeated(
        5,
        1e3,
        1,
        build_tables,
        dataclasses.replace(
            TINY_SPEC, mc_trials=0, mc_depths=(), mc_target_se=0.0
        ),
    )

    oracle = SettlementOracle.load(ORACLE_ARTIFACT_DIR)
    spec = oracle.spec
    rng = np.random.default_rng(QUERY_SEED)
    alphas, fractions, deltas, depths = random_queries(
        spec, SINGLE_QUERIES, rng
    )

    def single_queries():
        for index in range(SINGLE_QUERIES):
            oracle.violation_probability(
                alphas[index], fractions[index], deltas[index], depths[index]
            )

    single_queries()  # warm-up
    single_s, _ = _time(single_queries)
    oracle_per_query = single_s / SINGLE_QUERIES

    dp_samples = list(spec.combos())[:5]
    dp_s, _ = _time(
        lambda: [
            settlement_violation_probability(
                effective_probabilities(
                    alpha, fraction, delta, spec.activity
                ),
                spec.depth_horizon,
            )
            for _, _, _, alpha, fraction, delta in dp_samples
        ]
    )
    dp_per_query = dp_s / len(dp_samples)

    columns = random_queries(spec, BATCH_QUERIES, rng)
    oracle.violation_probabilities(*columns)  # warm-up
    batch_s, _ = _time(oracle.violation_probabilities, *columns)

    record = {
        "artifact": str(ORACLE_ARTIFACT_DIR.name),
        "cells": int(oracle.tables.forward.size),
        "build_seconds": round(build_s, 4),
        "rebuild_seconds": round(rebuild_s, 4),
        "rebuild_noop": not rerun.rebuilt,
        "dp_build_ms": dp_build_ms,
        "mc_points": report.mc_points,
        "mc_cached": report.mc_cached,
        "dp_per_query_seconds": round(dp_per_query, 6),
        "single_query_microseconds": round(oracle_per_query * 1e6, 2),
        "per_query_speedup": round(dp_per_query / oracle_per_query, 1),
        "batch_queries": BATCH_QUERIES,
        "batch_seconds": round(batch_s, 4),
        "batch_queries_per_second": round(BATCH_QUERIES / batch_s),
    }
    if report.mc_points and report.mc_cached == report.mc_points:
        record["note"] = "warm cache: zero re-estimation"
    return record


def wan_record(quick: bool) -> dict:
    """The continuous-time network record (the PR 7 point).

    Three measurements:

    * raw :class:`~repro.protocol.events.EventScheduler` throughput —
      schedule + drain of a large synthetic workload, in events/s;
    * WAN-vs-slot simulator throughput: the E10 workload once over the
      slot-quantized NetworkModel and once over the Transport with the
      full WAN feature set enabled (ring relays, bandwidth, uniform
      jitter).  The two run as ``WAN_PAIRS`` interleaved slot/WAN
      pairs, and ``wan_over_slot_ratio`` — the median per-pair ratio —
      is asserted >= 0.5 by main(): continuous-time physics may cost
      something, but never half the simulator.  A change in host speed
      between two single shots would read as a ratio change; within a
      pair it moves both sides;
    * the degenerate-configuration assert: the *same* E10 workload with
      ``network="wan"`` and default transport fields must produce a
      bit-identical estimate to the slot model — the degenerate-case
      guarantee, re-checked where the numbers are recorded.

    A delay-distribution sample from one WAN run rides along so the
    record documents what the new observable looks like.
    """
    from repro.protocol.events import EventScheduler

    scenario = get_scenario("protocol-honest")
    trials = max(TRIALS["protocol_e10_trials"] // (4 if quick else 1), 4)
    seed = SEEDS["protocol_e10"]

    # 1. Scheduler micro-bench: interleaved schedule/drain in slot-sized
    # windows (the transport's actual access pattern).
    events = 20_000 if quick else 100_000
    scheduler = EventScheduler()

    def scheduler_workload():
        drained = 0
        for i in range(events):
            scheduler.schedule(float(i % 97) + (i % 7) / 8, i)
            if i % 64 == 63:
                drained += len(scheduler.pop_until(float(i % 97)))
        drained += len(scheduler.pop_until(200.0))
        return drained

    scheduler_s, drained = _time(scheduler_workload)
    assert drained == events, "scheduler lost events under the bench load"

    # 2. Slot-vs-WAN simulator throughput on the E10 workload.
    wan_scenario = get_scenario(
        "protocol-honest",
        network="wan",
        latency=0.4,
        bandwidth=4096.0,
        jitter="uniform",
        jitter_scale=0.5,
        topology="ring",
    )
    slot_runner = ProtocolRunner(scenario)
    wan_runner = ProtocolRunner(wan_scenario)
    slot_runner.run(2, seed)  # warm-up
    wan_runner.run(2, seed)
    slot_times, wan_times, ratios = [], [], []
    for _ in range(WAN_PAIRS):
        slot_s, slot_estimate = _time(slot_runner.run, trials, seed)
        wan_s, wan_estimate = _time(wan_runner.run, trials, seed)
        slot_times.append(slot_s)
        wan_times.append(wan_s)
        ratios.append(slot_s / wan_s)
    slot_s, wan_s = statistics.median(slot_times), statistics.median(wan_times)

    # 3. Degenerate configuration: wan + all-default transport fields
    # must reproduce the slot estimate bit-exactly.
    degenerate = ProtocolRunner(
        get_scenario("protocol-honest", network="wan")
    ).run(trials, seed)
    degenerate_ok = degenerate == slot_estimate

    sample = wan_scenario.build_simulation(f"protocol-{seed}").run()
    distribution = sample.delay_distribution()

    return {
        "scheduler_events": events,
        "scheduler_seconds": round(scheduler_s, 4),
        "scheduler_events_per_second": round(events / scheduler_s),
        "workload": wan_scenario.name,
        "trials": trials,
        "slot_seconds": round(slot_s, 4),
        "slot_trials_per_second": round(trials / slot_s, 2),
        "wan_seconds": round(wan_s, 4),
        "wan_trials_per_second": round(trials / wan_s, 2),
        "wan_over_slot_ratio": round(statistics.median(ratios), 3),
        "wan_over_slot_ratio_pairs": {
            "pairs": WAN_PAIRS,
            "min": round(min(ratios), 3),
            "max": round(max(ratios), 3),
        },
        "degenerate_bit_identical": degenerate_ok,
        "wan_value": wan_estimate.value,
        "delay_distribution": {
            "count": distribution.count,
            "mean": round(distribution.mean, 4),
            "p50": round(distribution.p50, 4),
            "p90": round(distribution.p90, 4),
            "p99": round(distribution.p99, 4),
            "max": round(distribution.maximum, 4),
            "delta": distribution.delta,
            "exceedance_rate": round(distribution.exceedance_rate, 4),
        },
    }


def _spawn_worker(env: dict) -> tuple[subprocess.Popen, str]:
    """Start one ``python -m repro.worker`` subprocess; (proc, host:port)."""
    import re

    process = subprocess.Popen(
        [sys.executable, "-m", "repro.worker", "--port", "0"],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    line = process.stdout.readline()
    match = re.match(r"listening on ([\d.]+):(\d+)", line)
    if not match:
        process.terminate()
        raise RuntimeError(f"worker did not announce its port: {line!r}")
    return process, f"{match.group(1)}:{match.group(2)}"


def backend_record(quick: bool) -> dict:
    """Chunks/s of one fixed workload on every execution backend.

    Runs the same ``(scenario, estimator, trials, seed)`` workload on
    the serial, process (2 workers), and distributed (2 localhost
    ``repro.worker`` subprocesses) backends, asserts all three
    estimates identical — the backend choice is purely
    a wall-clock knob — and records per-backend chunk throughput plus
    ``distributed_overhead_ratio`` (distributed over process chunks/s;
    main() enforces the >= 0.5x localhost floor).  Worker/pool startup
    runs before the timed region: the record measures steady-state
    dispatch overhead, not interpreter boot.

    The record also carries the hot-kernel micro-bench: per-call
    milliseconds of the reach kernels on one ``4096 × 256`` matrix, and
    of the slot-major margin scan (``joint_final_states`` with
    stationary initial reaches) at ``4096 × 40`` and ``4096 × 100``,
    each the median of ``KERNEL_REPEATS`` with min and max.
    """
    from repro.engine.distributed import DistributedBackend
    from repro.engine.parallel import ProcessBackend, SerialBackend
    from repro.engine.runner import ExperimentRunner
    from repro.engine import kernels
    import numpy as np

    scenario = get_scenario("stake-sweep/alpha=0.3/frac=1")
    chunk_size = 4096
    trials = chunk_size * (8 if quick else 32)
    seed = SEEDS["engine_scalar_vs_batched"]
    chunks = trials // chunk_size
    runner = ExperimentRunner(scenario, chunk_size=chunk_size)

    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH")
        else src
    )

    workers = []
    estimates = {}
    backends = {}
    try:
        worker_hosts = []
        for _ in range(2):
            process, address = _spawn_worker(env)
            workers.append(process)
            worker_hosts.append(address)

        def timed(name, backend):
            with backend:
                runner.run(chunk_size, seed=seed, backend=backend)  # warm
                seconds, estimate = _time(
                    runner.run, trials, seed=seed, backend=backend
                )
            estimates[name] = estimate
            backends[name] = {
                "seconds": round(seconds, 4),
                "chunks_per_second": round(chunks / seconds, 2),
            }

        timed("serial", SerialBackend())
        timed("process", ProcessBackend(2))
        timed(
            "distributed",
            DistributedBackend.from_spec(",".join(worker_hosts)),
        )
    finally:
        for process in workers:
            process.terminate()
        for process in workers:
            process.wait(timeout=10)

    reference = estimates["serial"]
    identical = all(value == reference for value in estimates.values())
    assert identical, f"backend changed the estimate: {estimates}"

    # Hot-kernel micro-bench: the reach kernels on one fixed matrix, and
    # the margin scan at the widths of the Table 1 MC depths.
    rng = np.random.default_rng(seed)
    uniforms = rng.random((chunk_size, 256))
    symbols = kernels.symbols_from_uniforms(scenario.probabilities, uniforms)
    for _ in range(2):  # warm ufunc/allocator
        kernels.final_reaches(symbols)
    sums_s, _sums = _time(kernels.prefix_sum_matrix, symbols)
    final_s, _ = _time(kernels.final_reaches, symbols)
    walk_s, _ = _time(
        kernels.reflected_walk_heights_from_uniforms, 0.1, uniforms
    )
    kernel_bench = {
        "matrix_shape": list(symbols.shape),
        "prefix_sum_matrix_ms": round(sums_s * 1e3, 3),
        "final_reaches_ms": round(final_s * 1e3, 3),
        "reflected_walk_ms": round(walk_s * 1e3, 3),
        "joint_final_states_ms": {},
    }
    initial = kernels.sample_initial_reaches(
        scenario.probabilities.epsilon, chunk_size, rng
    )
    for width in (40, 100):
        columns = np.ascontiguousarray(symbols[:, :width])
        kernels.joint_final_states(columns, 0, initial)  # warm
        kernel_bench["joint_final_states_ms"][f"{chunk_size}x{width}"], _ = (
            _repeated(
                KERNEL_REPEATS, 1e3, 3,
                kernels.joint_final_states, columns, 0, initial,
            )
        )

    return {
        "workload": scenario.name,
        "trials": trials,
        "chunk_size": chunk_size,
        "chunks": chunks,
        "identical_estimates": identical,
        "backends": backends,
        "distributed_overhead_ratio": round(
            backends["distributed"]["chunks_per_second"]
            / backends["process"]["chunks_per_second"],
            3,
        ),
        "kernels": kernel_bench,
        "temporaries_audit": (
            "joint_final_states/margin_trajectories run one slot-major "
            "scan: the codes are transposed and decoded once, then "
            "(rho, mu) update in place per slot with preallocated "
            "boolean scratch, in int32 unless a huge initial reach "
            "needs int64; prefix_sum_matrix fills a [:, 1:] view and "
            "accumulates with out=; final_reaches/reflected walk reduce "
            "to per-row min/max without trajectory or floor matrices"
        ),
    }


def run_bench_suite(quick: bool) -> int:
    """Execute the pytest benchmark files (assertion mode, timings off)."""
    # bench_*.py does not match pytest's default python_files pattern, so
    # the files must be selected explicitly.
    selection = (
        ["bench_table1_settlement.py::test_table1_block_sweep",
         "bench_table1_settlement.py::test_table1_monte_carlo_grid",
         "bench_fig1_example_fork.py",
         "bench_fig2_fig3_balanced.py",
         "bench_oracle_throughput.py"]
        if quick
        else sorted(
            p.name
            for p in (REPO_ROOT / "benchmarks").glob("bench_*.py")
            if p.name != "bench_config.py"
        )
    )
    command = [
        sys.executable,
        "-m",
        "pytest",
        "-q",
        "--benchmark-disable",
        "-p",
        "no:cacheprovider",
        *selection,
    ]
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH")
        else src
    )
    # Opt the sweep-driven benches into the shared result cache: a rerun
    # of the suite re-asserts every claim without re-estimating points.
    env.setdefault(CACHE_DIR_ENV, str(SWEEP_CACHE_DIR))
    return subprocess.call(command, cwd=REPO_ROOT / "benchmarks", env=env)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI-sized run")
    parser.add_argument(
        "--perf-only",
        action="store_true",
        help="skip the pytest suite, only write the perf record",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process-pool width for the orchestrated sweep record",
    )
    args = parser.parse_args()

    from bench_oracle_serving import serving_record

    record = {"quick": args.quick, "python": sys.version.split()[0]}
    workers = args.workers
    with ProcessBackend(workers) if workers > 1 else SerialBackend() as pool:
        record["protocol"] = protocol_record(args.quick, workers, pool)
        record["protocol_sweep"] = protocol_sweep_record(
            args.quick, workers, pool
        )
        record["sweep"] = sweep_record(args.quick, workers, pool)
        record["adaptive"] = adaptive_record(args.quick, pool)
        record["exact"] = exact_record(args.quick)
        record["oracle"] = oracle_record(args.quick, pool)
    record["serving"] = serving_record(args.quick)
    record["backend"] = backend_record(args.quick)
    record["wan"] = wan_record(args.quick)
    out = REPO_ROOT / "BENCH_engine.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    protocol = record["protocol"]
    parallel_note = (
        f", {protocol['workers']}-worker fan-out "
        f"{protocol['parallel_speedup']}x"
        if "parallel_speedup" in protocol
        else ""
    )
    print(
        f"protocol '{protocol['workload']}': "
        f"{protocol['batched_seconds']}s, "
        f"{protocol['slots_per_second']} slots/s{parallel_note}"
    )
    for sweep, label in (
        (record["protocol_sweep"], "protocol sweep"),
        (record["sweep"], "sweep"),
    ):
        if "parallel_speedup" in sweep:
            detail = f", parallel speedup {sweep['parallel_speedup']}x"
        elif "note" in sweep:
            detail = f" -- {sweep['note']}"
        else:
            detail = ""
        print(
            f"{label} '{sweep['grid']}': {sweep['points']} points in "
            f"{sweep['wall_seconds']}s (workers={sweep['workers']}, "
            f"{sweep['cache_hits']} cached, {sweep['cache_misses']} estimated"
            f"{detail})"
        )
    adaptive = record["adaptive"]
    print(
        f"adaptive '{adaptive['grid']}': fixed "
        f"{adaptive['fixed_total_trials']} trials vs adaptive "
        f"{adaptive['adaptive_total_trials']} "
        f"({adaptive['trials_ratio']}x fewer) at max SE "
        f"{adaptive['adaptive_max_se']:.2g} <= target "
        f"{adaptive['target_se']:.2g}; warm trials bump re-sampled "
        f"{'only new' if adaptive['warm_extension_resamples_only_new_chunks'] else 'OLD'}"
        " chunks"
    )
    exact = record["exact"]
    timings = ", ".join(
        f"k={k} {entry['median']}s" for k, entry in exact["dp_seconds"].items()
    )
    table_note = (
        f", full Table 1 {exact['table1_seconds']}s"
        if "table1_seconds" in exact
        else ""
    )
    print(
        f"exact DP (median of {exact['repeats']}): {timings}{table_note}; "
        f"{exact['printed_cells_checked']} printed cells checked, "
        f"{len(exact['printed_mismatches'])} mismatched"
    )
    oracle = record["oracle"]
    print(
        f"oracle '{oracle['artifact']}': {oracle['cells']} cells built in "
        f"{oracle['build_seconds']}s, rebuild "
        f"{'no-op' if oracle['rebuild_noop'] else 'RE-RAN'} in "
        f"{oracle['rebuild_seconds']}s; single query "
        f"{oracle['single_query_microseconds']}us "
        f"({oracle['per_query_speedup']}x over the DP), batch "
        f"{oracle['batch_queries_per_second']} queries/s"
    )
    serving = record["serving"]
    for mode, entry in serving["modes"].items():
        print(
            f"serving[{mode}]: scalar "
            f"{entry['scalar']['requests_per_second']} req/s "
            f"(p50 {entry['scalar']['p50_ms']}ms, "
            f"p99 {entry['scalar']['p99_ms']}ms), batch "
            f"{entry['batch']['queries_per_second']} queries/s over HTTP "
            f"(p50 {entry['batch']['p50_ms']}ms, "
            f"p99 {entry['batch']['p99_ms']}ms)"
        )
    print(
        f"serving: prefork4 batch speedup {serving['prefork_batch_speedup']}x "
        f"({serving['cpu_count']} cores), batch-encode speedup "
        f"{serving['batch_encode']['speedup']}x, byte parity "
        f"{serving['answers_identical_across_modes']}, error rate "
        f"{serving['error_rate']}"
    )
    backend = record["backend"]
    throughput = ", ".join(
        f"{name} {entry['chunks_per_second']} chunks/s"
        for name, entry in backend["backends"].items()
    )
    print(
        f"backend '{backend['workload']}': {throughput} "
        f"(identical estimates, distributed/process "
        f"{backend['distributed_overhead_ratio']}x)"
    )
    wan = record["wan"]
    print(
        f"wan '{wan['workload']}': scheduler "
        f"{wan['scheduler_events_per_second']} events/s; slot "
        f"{wan['slot_trials_per_second']} vs wan "
        f"{wan['wan_trials_per_second']} trials/s "
        f"({wan['wan_over_slot_ratio']}x, median of "
        f"{wan['wan_over_slot_ratio_pairs']['pairs']} pairs, "
        f"{wan['wan_over_slot_ratio_pairs']['min']}-"
        f"{wan['wan_over_slot_ratio_pairs']['max']}x); degenerate config "
        f"{'bit-identical' if wan['degenerate_bit_identical'] else 'DIVERGED'}"
        f"; delay p99 {wan['delay_distribution']['p99']} slots, "
        f"Delta-exceedance {wan['delay_distribution']['exceedance_rate']}"
    )
    print(f"perf record written to {out}")

    if adaptive["trials_ratio"] < 3:
        print(
            "FAIL: adaptive runs below the 3x trial-savings floor "
            f"({adaptive['trials_ratio']}x at equal-or-better max SE)",
            file=sys.stderr,
        )
        return 1
    if not adaptive["se_no_worse"]:
        print(
            "FAIL: adaptive max standard error exceeds the fixed run's "
            f"({adaptive['adaptive_max_se']} > {adaptive['target_se']})",
            file=sys.stderr,
        )
        return 1
    if not adaptive["warm_extension_resamples_only_new_chunks"]:
        print(
            "FAIL: warm-ledger trials bump re-sampled previously "
            "ledgered chunks",
            file=sys.stderr,
        )
        return 1
    if exact["printed_mismatches"]:
        print(
            "FAIL: exact DP does not reproduce Table 1's printed digits: "
            + "; ".join(exact["printed_mismatches"]),
            file=sys.stderr,
        )
        return 1
    if not oracle["rebuild_noop"]:
        print(
            "FAIL: identical oracle rebuild re-ran instead of no-op",
            file=sys.stderr,
        )
        return 1
    if oracle["per_query_speedup"] < 100:
        print(
            "FAIL: oracle scalar query below the 100x-over-DP floor "
            f"({oracle['per_query_speedup']}x)",
            file=sys.stderr,
        )
        return 1
    if oracle["batch_queries_per_second"] < 50_000:
        print(
            "FAIL: oracle batch path below the 50k queries/s floor "
            f"({oracle['batch_queries_per_second']}/s)",
            file=sys.stderr,
        )
        return 1
    if serving["batch"]["queries_per_second"] < 50_000:
        print(
            "FAIL: oracle serving batch path below the 50k queries/s "
            f"over-HTTP floor ({serving['batch']['queries_per_second']}/s)",
            file=sys.stderr,
        )
        return 1
    if serving["prefork_batch_speedup"] < serving["slo"][
        "prefork_batch_speedup_floor"
    ]:
        print(
            "FAIL: prefork serving batch path below its speedup floor "
            f"({serving['prefork_batch_speedup']}x vs "
            f"{serving['slo']['prefork_batch_speedup_floor']}x of threaded "
            f"on {serving['cpu_count']} cores)",
            file=sys.stderr,
        )
        return 1
    if not serving["answers_identical_across_modes"]:
        print(
            "FAIL: serving modes returned different bytes on the golden "
            "request set",
            file=sys.stderr,
        )
        return 1
    if serving["error_rate"] > 0:
        print(
            "FAIL: oracle serving returned errors under load "
            f"(error rate {serving['error_rate']})",
            file=sys.stderr,
        )
        return 1
    if not serving["metrics_endpoint_counted_load"]:
        print(
            "FAIL: /metrics did not account for the serving load",
            file=sys.stderr,
        )
        return 1
    if not backend["identical_estimates"]:
        print("FAIL: a backend changed the estimate", file=sys.stderr)
        return 1
    if backend["distributed_overhead_ratio"] < 0.5:
        print(
            "FAIL: distributed backend below the 0.5x-of-process "
            f"localhost floor ({backend['distributed_overhead_ratio']}x)",
            file=sys.stderr,
        )
        return 1
    if not wan["degenerate_bit_identical"]:
        print(
            "FAIL: default-config Transport diverged from the "
            "slot-quantized model",
            file=sys.stderr,
        )
        return 1
    if wan["wan_over_slot_ratio"] < 0.5:
        print(
            "FAIL: WAN transport below the 0.5x-of-slot-simulator "
            f"throughput floor ({wan['wan_over_slot_ratio']}x, median "
            "per-pair ratio)",
            file=sys.stderr,
        )
        return 1
    if (
        wan["scheduler_events_per_second"]
        < wan["slot_trials_per_second"] * 0.5
    ):
        print(
            "FAIL: event scheduler slower than half the slot simulator's "
            f"trial rate ({wan['scheduler_events_per_second']} events/s)",
            file=sys.stderr,
        )
        return 1

    if args.perf_only:
        return 0
    return run_bench_suite(args.quick)


if __name__ == "__main__":
    raise SystemExit(main())
