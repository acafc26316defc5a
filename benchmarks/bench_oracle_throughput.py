"""E11 — the settlement oracle: exactness, conservatism, throughput.

The oracle's whole claim is that precomputation moves settlement
queries from DP-speed to memory-speed without giving up safety.  Four
checks:

* **exact at grid points** — every tabulated cell answers bit-identical
  to the exact DP sweep the builder runs on the cell's effective law
  (``compute_settlement_probabilities`` to the depth horizon, read out
  at k);
* **conservative between grid points** — on a spot-check set of
  off-grid queries, the oracle's answer dominates the exact DP value
  computed directly at the query coordinates;
* **no-op rebuild** — rebuilding the artifact from an identical spec
  loads the manifest and touches neither the DP nor the Monte-Carlo
  estimator (and a forced rebuild against the warm result cache does
  zero re-estimation);
* **throughput floors** — a single scalar query beats recomputing the
  DP by ≥ 100× and the vectorized batch path answers ≥ 50 000
  queries/second (the same floors ``run_all.py`` asserts when writing
  the ``oracle`` record to BENCH_engine.json).
"""

import numpy as np
import pytest

from bench_config import ROUNDS, SEEDS, TRIALS, random_queries, timed
from repro.analysis.exact import (
    compute_settlement_probabilities,
    settlement_violation_probability,
)
from repro.engine import cache_from_env
from repro.oracle import (
    SettlementOracle,
    TINY_SPEC,
    build_tables,
    effective_probabilities,
)

#: Random off-grid query generator shared with run_all.py's record.
QUERY_SEED = SEEDS["oracle_queries"]
BATCH_QUERIES = TRIALS["oracle_batch_queries"]
SINGLE_QUERIES = TRIALS["oracle_single_queries"]
DP_SAMPLES = 5
PER_QUERY_FLOOR = 100.0
BATCH_FLOOR = 50_000.0


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    directory = tmp_path_factory.mktemp("oracle") / "tables"
    report = build_tables(
        TINY_SPEC, out_dir=directory, cache=cache_from_env()
    )
    return directory, report


@pytest.fixture(scope="module")
def oracle(artifact):
    directory, _ = artifact
    return SettlementOracle.load(directory)


def test_exact_at_every_grid_point(oracle):
    spec = oracle.spec
    for i, j, l, alpha, fraction, delta in spec.combos():
        law = effective_probabilities(alpha, fraction, delta, spec.activity)
        sweep = compute_settlement_probabilities(
            law, list(range(1, spec.depth_horizon + 1))
        )
        for k in spec.depths:
            assert oracle.violation_probability(alpha, fraction, delta, k) == (
                sweep[k]
            )


def test_conservative_on_random_off_grid_queries(oracle):
    spec = oracle.spec
    rng = np.random.default_rng(QUERY_SEED)
    alphas, fractions, deltas, depths = random_queries(spec, 25, rng)
    deltas = np.round(deltas).astype(int)
    depths = np.floor(depths).astype(int)
    answers = oracle.violation_probabilities(alphas, fractions, deltas, depths)
    for alpha, fraction, delta, depth, answer in zip(
        alphas, fractions, deltas, depths, answers
    ):
        law = effective_probabilities(
            float(alpha), float(fraction), int(delta), spec.activity
        )
        exact = settlement_violation_probability(law, int(depth))
        assert answer >= exact * (1.0 - 1e-12)


def test_identical_rebuild_is_noop(artifact):
    directory, first = artifact
    assert first.rebuilt
    rerun = build_tables(TINY_SPEC, out_dir=directory)
    assert not rerun.rebuilt
    assert np.array_equal(rerun.tables.forward, first.tables.forward)


def test_single_query_speedup_floor(oracle, benchmark):
    spec = oracle.spec
    rng = np.random.default_rng(QUERY_SEED)
    alphas, fractions, deltas, depths = random_queries(
        spec, SINGLE_QUERIES, rng
    )

    def single_queries():
        total = 0.0
        for index in range(SINGLE_QUERIES):
            total += oracle.violation_probability(
                alphas[index],
                fractions[index],
                deltas[index],
                depths[index],
            )
        return total

    samples = list(spec.combos())[:DP_SAMPLES]

    def dp_queries():
        for _, _, _, alpha, fraction, delta in samples:
            settlement_violation_probability(
                effective_probabilities(alpha, fraction, delta, spec.activity),
                spec.depth_horizon,
            )

    benchmark(single_queries)
    _, (ratio,), _ = timed(
        ROUNDS, dp_queries, single_queries, units=(DP_SAMPLES, SINGLE_QUERIES)
    )
    speedup = ratio["median"]
    benchmark.extra_info["per_query_speedup"] = round(speedup, 1)
    assert speedup >= PER_QUERY_FLOOR, (
        f"oracle scalar query only {speedup:.1f}x faster than the DP "
        f"(floor {PER_QUERY_FLOOR}x)"
    )


def test_batch_throughput_floor(oracle, benchmark):
    rng = np.random.default_rng(QUERY_SEED + 1)
    columns = random_queries(oracle.spec, BATCH_QUERIES, rng)

    result = benchmark(oracle.violation_probabilities, *columns)
    assert result.shape == (BATCH_QUERIES,)

    (seconds,), _, _ = timed(
        ROUNDS, lambda: oracle.violation_probabilities(*columns)
    )
    throughput = BATCH_QUERIES / seconds["median"]
    benchmark.extra_info["queries_per_second"] = round(throughput)
    assert throughput >= BATCH_FLOOR, (
        f"batch path serves {throughput:.0f} queries/s "
        f"(floor {BATCH_FLOOR:.0f})"
    )
