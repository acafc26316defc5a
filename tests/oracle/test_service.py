"""SettlementOracle: exactness at grid points, conservatism off them."""

import numpy as np
import pytest

from repro.analysis.exact import (
    compute_settlement_probabilities,
    settlement_violation_probability,
)
from repro.oracle.service import (
    OracleDomainError,
    SettlementOracle,
    UNREACHABLE_DEPTH,
)
from repro.oracle.tables import (
    OracleSpec,
    build_tables,
    effective_probabilities,
)

SPEC = OracleSpec(
    alphas=(0.1, 0.2, 0.3),
    unique_fractions=(0.5, 1.0),
    deltas=(0, 2),
    depths=(5, 10, 20),
    targets=(1e-1, 1e-2, 1e-3),
    activity=0.05,
)


@pytest.fixture(scope="module")
def oracle():
    return SettlementOracle(build_tables(SPEC).tables)


def exact(alpha, fraction, delta, k):
    return settlement_violation_probability(
        effective_probabilities(alpha, fraction, delta, SPEC.activity), k
    )


class TestExactAtGridPoints:
    def test_every_cell_bit_identical_to_dp(self, oracle):
        # A grid cell is the combo's DP sweep to the horizon, read out at k.
        for i, j, l, alpha, fraction, delta in SPEC.combos():
            sweep = compute_settlement_probabilities(
                effective_probabilities(alpha, fraction, delta, SPEC.activity),
                list(range(1, SPEC.depth_horizon + 1)),
            )
            for k in SPEC.depths:
                assert oracle.violation_probability(
                    alpha, fraction, delta, k
                ) == sweep[k]

    def test_batch_matches_scalar(self, oracle):
        # Grid cells plus off-grid queries: the bisect scalar fast path
        # and the searchsorted batch path must agree everywhere.
        queries = [
            (alpha, fraction, delta, k)
            for _, _, _, alpha, fraction, delta in SPEC.combos()
            for k in SPEC.depths
        ] + [
            (0.15, 0.75, 1, 13),
            (0.29, 0.51, 2, 6),
            (0.1, 1.0, 0, 25),
        ]
        columns = list(zip(*queries))
        batch = oracle.violation_probabilities(*columns)
        for row, (alpha, fraction, delta, k) in zip(batch, queries):
            assert row == oracle.violation_probability(
                alpha, fraction, delta, k
            )

    def test_batch_matches_scalar_depth_queries(self, oracle):
        queries = [
            (alpha, fraction, delta, target)
            for _, _, _, alpha, fraction, delta in SPEC.combos()
            for target in SPEC.targets
        ] + [(0.15, 0.75, 1, 5e-2)]
        columns = list(zip(*queries))
        batch, sources = oracle.settlement_depths_with_source(*columns)
        for row, source, (alpha, fraction, delta, target) in zip(
            batch, sources, queries
        ):
            scalar = oracle.settlement_depth_with_source(
                alpha, fraction, delta, target
            )
            depth = UNREACHABLE_DEPTH if scalar[0] is None else scalar[0]
            assert (int(row), source) == (depth, scalar[1])


class TestConservativeBetweenGridPoints:
    # Off-grid spot-check set: strictly interior in at least one axis.
    QUERIES = [
        (0.15, 1.0, 0, 10),
        (0.1, 0.75, 0, 10),
        (0.1, 1.0, 1, 10),
        (0.1, 1.0, 0, 13),
        (0.17, 0.66, 1, 7),
        (0.25, 0.9, 2, 17),
        (0.12, 0.51, 1, 19),
    ]

    @pytest.mark.parametrize("alpha,fraction,delta,k", QUERIES)
    def test_answer_dominates_exact_dp(self, oracle, alpha, fraction, delta, k):
        answer = oracle.violation_probability(alpha, fraction, delta, k)
        assert answer >= exact(alpha, fraction, delta, k)

    def test_snaps_to_worst_corner_of_cell(self, oracle):
        # alpha rounds up, fraction down, delta up, depth down.
        assert oracle.violation_probability(
            0.15, 0.75, 1, 13
        ) == oracle.violation_probability(0.2, 0.5, 2, 10)

    def test_depth_query_is_conservative(self, oracle):
        # Off-grid target snaps to the stricter grid target -> deeper k
        # (alpha = 0.1 decays fast enough that 1e-2 is reachable within
        # this tiny table's 20-deep horizon).
        on_grid, _ = oracle.settlement_depth_with_source(0.1, 1.0, 0, 1e-2)
        between, _ = oracle.settlement_depth_with_source(0.1, 1.0, 0, 5e-2)
        assert between == on_grid
        loose, _ = oracle.settlement_depth_with_source(0.1, 1.0, 0, 1e-1)
        assert between >= loose
        # And the answered depth really does satisfy the asked target.
        assert exact(0.1, 1.0, 0, between) <= 5e-2


class TestDepthQueries:
    def test_matches_minimal_depth_table(self, oracle):
        tables = oracle.tables
        for i, j, l, alpha, fraction, delta in SPEC.combos():
            for n, target in enumerate(SPEC.targets):
                stored = int(tables.minimal_depth[i, j, l, n])
                answer, source = oracle.settlement_depth_with_source(
                    alpha, fraction, delta, target
                )
                if stored == UNREACHABLE_DEPTH:
                    # Only the analytic fallback may answer a −1 cell.
                    assert source != "table"
                else:
                    assert (answer, source) == (stored, "table")

    def test_batch_sentinel(self, oracle):
        depths, _ = oracle.settlement_depths_with_source(
            [0.3, 0.1], [0.5, 1.0], [2, 0], [1e-3, 1e-1]
        )
        assert depths.dtype == np.int64
        # Strict target at the nastiest cell may be unreachable in a
        # 20-deep table; the loose one at the best cell never is.
        assert depths[1] > 0


class TestDomain:
    def test_alpha_above_grid_raises(self, oracle):
        with pytest.raises(OracleDomainError, match="conservative hull"):
            oracle.violation_probability(0.45, 1.0, 0, 10)

    def test_fraction_below_grid_raises(self, oracle):
        with pytest.raises(OracleDomainError, match="conservative hull"):
            oracle.violation_probability(0.1, 0.25, 0, 10)

    def test_depth_below_grid_raises(self, oracle):
        with pytest.raises(OracleDomainError, match="smallest depth"):
            oracle.violation_probability(0.1, 1.0, 0, 3)

    def test_target_below_grid_raises(self, oracle):
        with pytest.raises(OracleDomainError, match="tightest target"):
            oracle.settlement_depth_with_source(0.1, 1.0, 0, 1e-9)

    def test_saturation_mode(self, oracle):
        assert (
            oracle.violation_probability(0.45, 1.0, 0, 10, strict=False)
            == 1.0
        )
        assert oracle.settlement_depth_with_source(
            0.45, 1.0, 0, 1e-2, strict=False
        ) == (None, None)

    def test_interior_values_above_grid_depth_allowed(self, oracle):
        # Depth beyond the top of the grid floors to the deepest row —
        # conservative (deeper blocks only settle harder).
        deep = oracle.violation_probability(0.1, 1.0, 0, 200)
        assert deep == oracle.violation_probability(0.1, 1.0, 0, 20)

    def test_shape_mismatch_rejected(self, oracle):
        with pytest.raises(ValueError, match="equal lengths"):
            oracle.violation_probabilities([0.1], [1.0], [0], [10, 20])

    def test_non_finite_rejected(self, oracle):
        with pytest.raises(ValueError, match="non-finite"):
            oracle.violation_probabilities(
                [float("nan")], [1.0], [0], [10]
            )
