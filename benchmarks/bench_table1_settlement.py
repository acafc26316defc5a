"""E1 — Table 1: exact probabilities of k-settlement violations.

Regenerates a representative sub-grid of the paper's Table 1 with the
Section 6.6 exact algorithm and asserts agreement with the printed
values to their 3 published digits.  The full 180-cell grid is produced
by ``examples/generate_table1.py`` (under 15 seconds) and checked at
k ≤ 400 by ``tests/analysis/test_table1.py``; this benchmark times
single cells from the k = 100 and k = 200 rows.

Run: ``pytest benchmarks/bench_table1_settlement.py --benchmark-only``
"""

import pytest

from bench_config import TRIALS
from repro.analysis.exact import (
    compute_settlement_probabilities,
    settlement_violation_probability,
)
from repro.core.distributions import from_adversarial_stake
from repro.data.table1 import PAPER_TABLE1
from repro.engine import cache_from_env, get_grid, run_grid

#: One full row group (fraction 0.8) and one full column (α = 0.30).
ROW_CELLS = [(0.8, alpha, 100) for alpha in (0.01, 0.10, 0.20, 0.30, 0.40, 0.49)]
COLUMN_CELLS = [(frac, 0.30, 200) for frac in (1.0, 0.9, 0.8, 0.5, 0.25, 0.01)]


@pytest.mark.parametrize("fraction,alpha,depth", ROW_CELLS + COLUMN_CELLS)
def test_table1_cell(benchmark, fraction, alpha, depth):
    probabilities = from_adversarial_stake(alpha, fraction)

    value = benchmark(
        settlement_violation_probability, probabilities, depth
    )

    expected = PAPER_TABLE1[(fraction, alpha, depth)]
    assert value == pytest.approx(expected, rel=6e-3), (
        f"(frac={fraction}, α={alpha}, k={depth}): "
        f"got {value:.4E}, paper {expected:.4E}"
    )
    benchmark.extra_info["paper"] = f"{expected:.3E}"
    benchmark.extra_info["reproduced"] = f"{value:.3E}"


def test_table1_block_sweep(benchmark):
    """One DP run serving a whole block column (k = 100..400), as Table 1
    is actually produced; checks every depth against the paper."""
    probabilities = from_adversarial_stake(0.30, 0.5)
    depths = [100, 200, 300, 400]

    computation = benchmark(
        compute_settlement_probabilities, probabilities, depths
    )

    for depth in depths:
        expected = PAPER_TABLE1[(0.5, 0.30, depth)]
        assert computation[depth] == pytest.approx(expected, rel=6e-3)


def test_table1_monte_carlo_grid(benchmark):
    """The registered "table1" sweep grid — the table's (α, p_h/(1−α), k)
    structure at Monte-Carlo-resolvable depths — orchestrated by the
    sweep layer and cross-checked point-by-point against the exact DP."""
    grid = get_grid("table1")
    trials = TRIALS["table1_mc_sweep"]

    rows = benchmark.pedantic(
        run_grid,
        args=(grid,),
        kwargs={"trials": trials, "cache": cache_from_env()},
        rounds=1,
        iterations=1,
    )

    assert len(rows) == grid.size()
    for row in rows:
        probabilities = from_adversarial_stake(
            row["alpha"], row["unique_fraction"]
        )
        exact = settlement_violation_probability(probabilities, row["depth"])
        slack = 4 * row["standard_error"] + 1e-12
        assert abs(row["value"] - exact) <= slack, (row, exact)
