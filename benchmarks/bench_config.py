"""Shared configuration for the benchmark suite.

Every bench takes its RNG seeds and trial counts from here instead of
hard-coded literals, so one edit re-scales or re-seeds the whole suite
(and `run_all.py --quick` can shrink it uniformly via the TRIALS
dictionary).  Seeds are arbitrary but fixed: the suite is deterministic
run-to-run.
"""

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
