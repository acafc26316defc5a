"""Run the benchmark suite and record the engine performance baseline.

Seven records, one function each (its docstring says what it
measures), then optionally the pytest benchmark suite:

1. ``protocol`` — E10 protocol throughput through ProtocolRunner, and
   with --workers > 1 the process fan-out ratio;
2. ``adaptive`` — the Table-1 grid adaptively against the fixed budget,
   and a trials bump on the warm chunk ledger (the prefix property);
3. ``exact`` — the banded Section 6.6 DP sweeps, and Table 1's printed
   digits at every k <= 400;
4. ``oracle`` — the tiny settlement-oracle build, its no-op rebuild,
   and both query paths against recomputing the exact DP per query;
5. ``serving`` — ``python -m repro.oracle serve`` children, threaded
   and ``--workers 4``, under concurrent HTTP load
   (``bench_oracle_serving.py``);
6. ``backend`` — one workload on the serial, process and distributed
   backends, and the hot-kernel micro-bench;
7. ``wan`` — event-scheduler and WAN-vs-slot simulator throughput, and
   the degenerate-configuration bit identity;
8. the pytest benchmark suite (skipped with --perf-only; shrunk with
   --quick for CI).  It inherits the cache via $REPRO_SWEEP_CACHE, so
   its sweep-driven benches skip already-computed points.

Every timing goes through ``bench_config.timed``: ROUNDS interleaved
rounds, recorded as ``{median, min, max, repeats}``, and every ratio is
the median of its per-round ratios.  The absolute rates of the
interpreter-bound protocol and WAN records (``slots_per_second``,
``*_trials_per_second``, ``scheduler_events_per_second``) are scaled
to a reference host speed by a reference loop timed around each pass
(``bench_config.reference_seconds``); each keeps its raw wall-clock
rate beside it as ``*_raw``.  All records land in
BENCH_engine.json at the repo root; then every gate of
``bench_config.GATES`` is checked, one line each, and the run exits 1 if any failed.

Usage:
    python benchmarks/run_all.py               # full: perf + suite
    python benchmarks/run_all.py --quick       # CI-sized subset
    python benchmarks/run_all.py --perf-only   # records only, no suite
    python benchmarks/run_all.py --workers 8   # process-pool width
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import pathlib
import subprocess
import sys
import tempfile

import numpy as np

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from bench_config import (  # noqa: E402
    GATES,
    ROUNDS,
    SEEDS,
    TRIALS,
    check_gates,
    child_env,
    random_queries,
    spawn,
    stop,
    timed,
)
from bench_oracle_serving import serving_record  # noqa: E402
from bench_oracle_throughput import (  # noqa: E402
    BATCH_QUERIES,
    QUERY_SEED,
    SINGLE_QUERIES,
)

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
    DEFAULT_SPEC,
    SettlementOracle,
    TINY_SPEC,
    build_tables,
    effective_probabilities,
)
from repro.oracle.tables import (  # noqa: E402
    ANALYTIC_HORIZON_FACTOR,
    _analytic_depth_row,
)

SWEEP_CACHE_DIR = REPO_ROOT / ".sweep-cache"


def protocol_record(quick: bool, workers: int, backend) -> dict:
    """Protocol-throughput record of the E10 workload.

    "protocol-honest" (10 honest nodes, 200 synchronous slots) runs
    through ProtocolRunner — shared validation, hash-indexed consistency
    predicates, bucketed message scheduler.  A workers > 1 pass on
    ``backend``, interleaved with the serial one, records the process
    fan-out ratio (≈ 1 on single-core boxes — the record still tracks
    it).
    """
    scenario = get_scenario("protocol-honest")
    trials = max(TRIALS["protocol_e10_trials"] // (4 if quick else 1), 4)
    seed = SEEDS["protocol_e10"]

    runner = ProtocolRunner(scenario)
    runner.run(2, seed)  # warm-up: allocator, hash machinery, imports
    runs = [functools.partial(runner.run, trials, seed)]
    if workers > 1:
        runs.append(functools.partial(runner.run, trials, seed, backend))
    seconds, speedups, estimates = timed(ROUNDS, *runs, reference=True)

    slots = scenario.total_slots * trials
    record = {
        "workload": "protocol-honest (E10 throughput)",
        "slots": scenario.total_slots,
        "parties": scenario.parties,
        "trials": trials,
        "batched_seconds": seconds[0],
        "slots_per_second": round(slots / seconds[0]["scaled"]["median"]),
        "slots_per_second_raw": round(slots / seconds[0]["median"]),
        "value": estimates[0].value,
    }
    if workers > 1:
        assert estimates[1] == estimates[0], "workers changed the estimate"
        record["workers"] = workers
        record["parallel_seconds"] = seconds[1]
        record["parallel_speedup"] = speedups[0]
    return record


def adaptive_record(quick: bool, backend) -> dict:
    """Adaptive precision targeting vs the fixed budget.

    Each round runs the Table-1 grid twice over a fresh chunk ledger:
    once with the fixed per-point budget, once adaptively with
    ``target_se`` set to the fixed run's *worst* standard error.  The
    adaptive run must reach equal-or-better max standard error while
    spending >= 3x fewer total trials (easy cells stop after their first
    waves; only the rare/hard cells run deep).  A trials bump on the
    last round's warm ledger must then re-sample only the new chunks:
    every old full chunk is served from the ledger bit-identically.

    The ledgers live in a throwaway directory (not .sweep-cache) so the
    cold-run arithmetic is deterministic even when the shared cache is
    already warm from an earlier invocation.
    """
    grid = dataclasses.replace(
        get_grid("table1"), name="table1-adaptive", chunk_size=256
    )
    trials = grid.trials // (10 if quick else 1)

    with tempfile.TemporaryDirectory(prefix="repro-ledger-") as root:
        rounds = []  # (ledger directory, fixed rows) per round

        def fixed():
            ledger = tempfile.mkdtemp(dir=root)
            rows = run_grid(
                grid, trials=trials, cache=ResultCache(ledger), backend=backend
            )
            rounds.append((ledger, rows))
            return rows

        def adaptive():
            # Runs over this round's warm fixed-run ledger, so its chunk
            # waves are served without sampling wherever they overlap.
            ledger, rows = rounds[-1]
            return run_grid(
                grid,
                trials=trials,
                cache=ResultCache(ledger),
                backend=backend,
                target_se=max(row["standard_error"] for row in rows),
            )

        (fixed_s, adaptive_s), _, (fixed_rows, adaptive_rows) = timed(
            ROUNDS, fixed, adaptive
        )
        target_se = max(row["standard_error"] for row in fixed_rows)

        # Warm-ledger extension: bump the fixed budget and check that
        # only the new chunks are sampled (the prefix property).
        bump_trials = 2 * trials
        bumped = run_grid(
            grid,
            trials=bump_trials,
            cache=ResultCache(rounds[-1][0]),
            backend=backend,
        )
    old_full = (trials // grid.chunk_size) * grid.chunk_size
    fixed_total = sum(row["trials"] for row in fixed_rows)
    adaptive_total = sum(row["trials"] for row in adaptive_rows)
    adaptive_max_se = max(row["standard_error"] for row in adaptive_rows)
    return {
        "grid": grid.name,
        "points": len(fixed_rows),
        "chunk_size": grid.chunk_size,
        "fixed_trials_per_point": trials,
        "fixed_total_trials": fixed_total,
        "fixed_seconds": fixed_s,
        "target_se": target_se,
        "adaptive_total_trials": adaptive_total,
        "adaptive_seconds": adaptive_s,
        "adaptive_max_se": adaptive_max_se,
        "adaptive_sampled_trials": sum(
            row["sampled_trials"] for row in adaptive_rows
        ),
        "trials_ratio": round(fixed_total / adaptive_total, 2),
        "se_no_worse": adaptive_max_se <= target_se,
        "warm_extension_resamples_only_new_chunks": all(
            row["reused_trials"] >= old_full
            and row["sampled_trials"] <= bump_trials - old_full
            for row in bumped
        ),
    }


#: Law and depths of the exact-DP timings.
EXACT_CELL = (0.9, 0.30)  # (unique fraction, alpha)
EXACT_DEPTHS = (100, 200, 300, 500)


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

    Each depth is one ``compute_settlement_probabilities`` sweep; the
    four depths are timed in interleaved rounds, and the full 180-cell
    ``settlement_table()`` outside --quick.  Every read-out at a printed
    depth must match Table 1's digits (a gate).
    """
    fraction, alpha = EXACT_CELL
    probabilities = from_adversarial_stake(alpha, fraction)
    seconds, _, computations = timed(
        ROUNDS,
        *(
            functools.partial(
                compute_settlement_probabilities, probabilities, [k]
            )
            for k in EXACT_DEPTHS
        ),
    )
    cells = {
        (fraction, alpha, k): computation[k]
        for k, computation in zip(EXACT_DEPTHS, computations)
    }
    record = {
        "law": {"alpha": alpha, "unique_fraction": fraction},
        "dp_seconds": dict(zip(map(str, EXACT_DEPTHS), seconds)),
    }
    if not quick:
        (table_s,), _, (table,) = timed(ROUNDS, settlement_table)
        cells.update(table)
        record["table1_seconds"] = table_s
        record["table1_cells"] = len(table)
    record["printed_cells_checked"] = sum(1 for key in cells if key[2] <= 400)
    record["printed_mismatches"] = _printed_mismatches(cells)
    return record


def oracle_record(quick: bool, backend) -> dict:
    """The settlement-oracle record (E11): build, no-op rebuild, QPS.

    Each round builds the tiny-preset artifact into a fresh directory
    (the Monte-Carlo cross-check runs through run_grid against the
    shared .sweep-cache, so only a cold cache estimates) and rebuilds
    it, which must be a manifest-level no-op, and makes one in-memory
    DP-only build of the same grid (forward cells, minimal-depth rows
    and the Bound 1 analytic rows, no Monte Carlo).
    ``analytic_row_seconds`` times one ``DEFAULT_SPEC`` analytic row on
    its own: the (α 0.30, fraction 0.9, Δ 2) combo at the production
    analytic horizon (series order 1920).  Then scalar lookups,
    recomputing the exact DP per query, and one batch lookup are timed
    in interleaved rounds: ``per_query_speedup`` is the per-round
    scalar speedup over the DP.
    """
    cache = ResultCache(SWEEP_CACHE_DIR)
    with tempfile.TemporaryDirectory(prefix="repro-oracle-") as root:
        artifacts = []

        def build():
            artifacts.append(pathlib.Path(root) / str(len(artifacts)))
            return build_tables(
                TINY_SPEC, out_dir=artifacts[-1], cache=cache, backend=backend
            )

        def rebuild():
            return build_tables(TINY_SPEC, out_dir=artifacts[-1], cache=cache)

        dp_build = functools.partial(
            build_tables,
            dataclasses.replace(
                TINY_SPEC, mc_trials=0, mc_depths=(), mc_target_se=0.0
            ),
        )
        (build_s, rebuild_s, dp_build_s), _, (report, rerun, _) = timed(
            ROUNDS, build, rebuild, dp_build
        )
        oracle = SettlementOracle.load(artifacts[-1])

    (analytic_row_s,), _, _ = timed(
        ROUNDS,
        functools.partial(
            _analytic_depth_row,
            effective_probabilities(0.30, 0.9, 2, DEFAULT_SPEC.activity),
            ANALYTIC_HORIZON_FACTOR * DEFAULT_SPEC.depth_horizon,
            DEFAULT_SPEC.targets,
        ),
    )
    spec = oracle.spec
    rng = np.random.default_rng(QUERY_SEED)
    alphas, fractions, deltas, depths = random_queries(
        spec, SINGLE_QUERIES, rng
    )
    dp_samples = list(spec.combos())[:5]
    columns = random_queries(spec, BATCH_QUERIES, rng)

    def single_queries():
        for index in range(SINGLE_QUERIES):
            oracle.violation_probability(
                alphas[index], fractions[index], deltas[index], depths[index]
            )

    def dp_queries():
        for _, _, _, alpha, fraction, delta in dp_samples:
            settlement_violation_probability(
                effective_probabilities(alpha, fraction, delta, spec.activity),
                spec.depth_horizon,
            )

    single_queries()  # warm-up
    oracle.violation_probabilities(*columns)
    (dp_s, single_s, batch_s), (per_query_speedup, _), _ = timed(
        ROUNDS,
        dp_queries,
        single_queries,
        functools.partial(oracle.violation_probabilities, *columns),
        units=(len(dp_samples), SINGLE_QUERIES, BATCH_QUERIES),
    )
    return {
        "cells": int(oracle.tables.forward.size),
        "build_seconds": build_s,
        "rebuild_seconds": rebuild_s,
        "rebuild_noop": not rerun.rebuilt,
        "dp_build_seconds": dp_build_s,
        "analytic_row_seconds": analytic_row_s,
        "mc_points": report.mc_points,
        "mc_cached": report.mc_cached,
        "dp_seconds": dp_s,
        "dp_per_query_seconds": round(dp_s["median"] / len(dp_samples), 6),
        "single_seconds": single_s,
        "single_query_microseconds": round(
            single_s["median"] / SINGLE_QUERIES * 1e6, 2
        ),
        "per_query_speedup": per_query_speedup,
        "batch_queries": BATCH_QUERIES,
        "batch_seconds": batch_s,
        "batch_queries_per_second": round(BATCH_QUERIES / batch_s["median"]),
    }


def wan_record(quick: bool) -> dict:
    """The continuous-time network record.

    Three measurements:

    * raw :class:`~repro.protocol.events.EventScheduler` throughput —
      schedule + drain of a large synthetic workload, in events/s;
    * WAN-vs-slot simulator throughput: the E10 workload once over the
      slot-quantized NetworkModel and once over the Transport with the
      full WAN feature set enabled (ring relays, bandwidth, uniform
      jitter), in interleaved rounds.  ``wan_over_slot_ratio`` is the
      median per-round ratio: continuous-time physics may cost
      something, but never half the simulator.  A change in host speed
      between two single shots would read as a ratio change; within a
      round it moves both sides;
    * the degenerate-configuration check: the *same* E10 workload with
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

    def scheduler_workload():
        scheduler = EventScheduler()
        drained = 0
        for i in range(events):
            scheduler.schedule(float(i % 97) + (i % 7) / 8, i)
            if i % 64 == 63:
                drained += len(scheduler.pop_until(float(i % 97)))
        drained += len(scheduler.pop_until(200.0))
        return drained

    (scheduler_s,), _, (drained,) = timed(
        ROUNDS, scheduler_workload, reference=True
    )
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
    (slot_s, wan_s), (ratio,), (slot_estimate, wan_estimate) = timed(
        ROUNDS,
        functools.partial(slot_runner.run, trials, seed),
        functools.partial(wan_runner.run, trials, seed),
        reference=True,
    )

    # 3. Degenerate configuration: wan + all-default transport fields
    # must reproduce the slot estimate bit-exactly.
    degenerate = ProtocolRunner(
        get_scenario("protocol-honest", network="wan")
    ).run(trials, seed)

    sample = wan_scenario.build_simulation(f"protocol-{seed}").run()
    distribution = sample.delay_distribution()

    return {
        "scheduler_events": events,
        "scheduler_seconds": scheduler_s,
        "scheduler_events_per_second": round(
            events / scheduler_s["scaled"]["median"]
        ),
        "scheduler_events_per_second_raw": round(
            events / scheduler_s["median"]
        ),
        "workload": wan_scenario.name,
        "trials": trials,
        "slot_seconds": slot_s,
        "slot_trials_per_second": round(
            trials / slot_s["scaled"]["median"], 2
        ),
        "slot_trials_per_second_raw": round(trials / slot_s["median"], 2),
        "wan_seconds": wan_s,
        "wan_trials_per_second": round(trials / wan_s["scaled"]["median"], 2),
        "wan_trials_per_second_raw": round(trials / wan_s["median"], 2),
        "wan_over_slot_ratio": ratio,
        "degenerate_bit_identical": degenerate == slot_estimate,
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


def backend_record(quick: bool) -> dict:
    """Chunks/s of one fixed workload on every execution backend.

    Runs the same ``(scenario, estimator, trials, seed)`` workload on
    the process (2 workers), distributed (2 localhost ``repro.worker``
    subprocesses) and serial backends in interleaved rounds, checks all
    three estimates identical — the backend choice is purely a
    wall-clock knob — and records per-backend chunk throughput plus
    ``distributed_overhead_ratio`` (the per-round ratio of distributed
    over process chunks/s).  Worker/pool startup and one warm-up run
    per backend come before the timed rounds: the record measures
    steady-state dispatch overhead, not interpreter boot.

    The record also carries the hot-kernel micro-bench: per-call
    seconds of ``prefix_sum_matrix`` on one ``4096 × 256`` matrix, and
    of the slot-major margin scan (``joint_final_states`` with
    stationary initial reaches) at ``4096 × 40`` and ``4096 × 100``.
    """
    from repro.engine.distributed import DistributedBackend
    from repro.engine.runner import ExperimentRunner
    from repro.engine import kernels

    scenario = get_scenario(
        "iid-settlement", probabilities=from_adversarial_stake(0.3, 1.0)
    )
    chunk_size = 4096
    trials = chunk_size * (8 if quick else 32)
    seed = SEEDS["engine_scalar_vs_batched"]
    chunks = trials // chunk_size
    runner = ExperimentRunner(scenario, chunk_size=chunk_size)

    workers = []
    try:
        for _ in range(2):
            workers.append(spawn("repro.worker", "--port", "0"))
        backends = {
            "process": ProcessBackend(2),
            "distributed": DistributedBackend(
                [address for _, address in workers]
            ),
            "serial": SerialBackend(),
        }
        with contextlib.ExitStack() as stack:
            runs = []
            for backend in backends.values():
                stack.enter_context(backend)
                runner.run(chunk_size, seed=seed, backend=backend)  # warm
                runs.append(
                    functools.partial(
                        runner.run, trials, seed=seed, backend=backend
                    )
                )
            seconds, (overhead, _), estimates = timed(ROUNDS, *runs)
    finally:
        for process, _ in workers:
            stop(process)

    # Hot-kernel micro-bench: the prefix sums on one fixed matrix, and
    # the margin scan at the widths of the Table 1 MC depths.
    rng = np.random.default_rng(seed)
    uniforms = rng.random((chunk_size, 256))
    symbols = kernels.symbols_from_uniforms(scenario.probabilities, uniforms)
    for _ in range(2):  # warm ufunc/allocator
        kernels.prefix_sum_matrix(symbols)
    initial = kernels.sample_initial_reaches(
        scenario.probabilities.epsilon, chunk_size, rng
    )
    widths = (40, 100)
    (sums_s, *scan_s), _, _ = timed(
        ROUNDS,
        functools.partial(kernels.prefix_sum_matrix, symbols),
        *(
            functools.partial(
                kernels.joint_final_states,
                np.ascontiguousarray(symbols[:, :width]),
                0,
                initial,
            )
            for width in widths
        ),
    )

    return {
        "workload": scenario.name,
        "trials": trials,
        "chunk_size": chunk_size,
        "chunks": chunks,
        "identical_estimates": all(
            estimate == estimates[0] for estimate in estimates
        ),
        "backends": {
            name: {
                "seconds": spread,
                "chunks_per_second": round(chunks / spread["median"], 2),
            }
            for name, spread in zip(backends, seconds)
        },
        "distributed_overhead_ratio": overhead,
        "kernels": {
            "matrix_shape": list(symbols.shape),
            "prefix_sum_matrix_seconds": sums_s,
            "joint_final_states_seconds": {
                f"{chunk_size}x{width}": spread
                for width, spread in zip(widths, scan_s)
            },
        },
        "temporaries_audit": (
            "joint_final_states/margin_trajectories run one slot-major "
            "scan: the codes are transposed and decoded once into int8 "
            "steps and hold thresholds, then one stacked (rho, mu) "
            "array updates in place per slot with preallocated boolean "
            "scratch, in the narrowest of int8/int16/int32/int64 that "
            "max |state| + length fits; prefix_sum_matrix fills a "
            "[:, 1:] view and accumulates with out="
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
    env = child_env()
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
        help="process-pool width of the protocol, adaptive and oracle runs",
    )
    args = parser.parse_args()

    record = {"quick": args.quick, "python": sys.version.split()[0]}
    workers = args.workers
    with ProcessBackend(workers) if workers > 1 else SerialBackend() as pool:
        record["protocol"] = protocol_record(args.quick, workers, pool)
        record["adaptive"] = adaptive_record(args.quick, pool)
        record["exact"] = exact_record(args.quick)
        record["oracle"] = oracle_record(args.quick, pool)
    record["serving"] = serving_record(args.quick)
    record["backend"] = backend_record(args.quick)
    record["wan"] = wan_record(args.quick)
    out = REPO_ROOT / "BENCH_engine.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"perf record written to {out}")

    if not check_gates(GATES, record):
        return 1
    if args.perf_only:
        return 0
    return run_bench_suite(args.quick)


if __name__ == "__main__":
    raise SystemExit(main())
