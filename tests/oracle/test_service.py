"""SettlementOracle: exactness at grid points, conservatism off them."""

import dataclasses
import math

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
from repro.oracle.store import save_tables
from repro.oracle.tables import (
    TINY_SPEC,
    OracleSpec,
    build_tables,
    effective_probabilities,
)
from tests.analysis.test_monotonicity import at_most

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


#: TINY_SPEC without its Monte-Carlo cross-check (DP cells only).
TINY_DP_SPEC = dataclasses.replace(
    TINY_SPEC, mc_depths=(), mc_trials=0, mc_target_se=0.0
)


def lattice_point(alpha, fraction, delta, depth):
    """A query rounded to the 1/64 lattice in the conservative
    directions: α up, fraction down, Δ up, k down."""
    return (
        math.ceil(alpha * 64) / 64,
        math.floor(fraction * 64) / 64,
        math.ceil(delta),
        math.floor(depth),
    )


def with_grid_lines(spec, point):
    """``spec`` with one more grid line through ``point`` on each axis."""
    alpha, fraction, delta, depth = point
    return dataclasses.replace(
        spec,
        alphas=tuple(sorted({*spec.alphas, alpha})),
        unique_fractions=tuple(sorted({*spec.unique_fractions, fraction})),
        deltas=tuple(sorted({*spec.deltas, delta})),
        depths=tuple(sorted({*spec.depths, depth})),
    )


class TestBuildTimeGridLines:
    """A finer answer at an off-grid point comes from a build with grid
    lines there, not from the server."""

    QUERIES = [
        (0.13, 0.83, 1, 7),  # CI's query: lattice point (9/64, 53/64, 1, 7)
        (0.15, 1.0, 0, 10),
        (0.25, 0.9, 2, 17),
        (0.12, 0.51, 1, 19),
        (0.29, 0.7, 0, 25),
    ]

    @pytest.fixture(scope="class")
    def coarse(self):
        return SettlementOracle(build_tables(TINY_DP_SPEC).tables)

    @pytest.fixture(scope="class")
    def fine_oracles(self):
        # One build per query, shared by every test of the class.
        return {
            query: SettlementOracle(
                build_tables(
                    with_grid_lines(TINY_DP_SPEC, lattice_point(*query))
                ).tables
            )
            for query in self.QUERIES
        }

    @pytest.mark.parametrize("query", QUERIES)
    def test_grid_lines_tighten_an_off_grid_answer(
        self, coarse, fine_oracles, query
    ):
        point = lattice_point(*query)
        fine = fine_oracles[query].violation_probability(*query)
        activity = TINY_DP_SPEC.activity
        dp = settlement_violation_probability(
            effective_probabilities(*query[:3], activity), query[3]
        )
        assert at_most(dp, fine)
        assert fine < coarse.violation_probability(*query)
        # The fine answer is the per-k DP at the lattice point itself.
        lattice = settlement_violation_probability(
            effective_probabilities(*point[:3], activity), point[3]
        )
        assert at_most(fine, lattice) and at_most(lattice, fine)

    @pytest.mark.parametrize("query", QUERIES)
    def test_query_reads_its_lattice_cell(self, fine_oracles, query):
        fine = fine_oracles[query]
        assert fine.violation_probability(*query) == (
            fine.violation_probability(*lattice_point(*query))
        )

    @pytest.mark.parametrize("query", QUERIES)
    def test_existing_cells_are_unchanged(self, coarse, fine_oracles, query):
        # Extra grid lines add cells; every cell of the coarse grid keeps
        # its exact value.
        fine = fine_oracles[query]
        for _, _, _, alpha, fraction, delta in TINY_DP_SPEC.combos():
            for k in TINY_DP_SPEC.depths:
                cell = (alpha, fraction, delta, k)
                assert fine.violation_probability(*cell) == (
                    coarse.violation_probability(*cell)
                )

    @pytest.mark.parametrize("query", QUERIES)
    def test_batch_matches_scalar(self, fine_oracles, query):
        fine = fine_oracles[query]
        queries = [query, lattice_point(*query)] + [
            (alpha, fraction, delta, k)
            for _, _, _, alpha, fraction, delta in fine.spec.combos()
            for k in fine.spec.depths
        ]
        batch = fine.violation_probabilities(*zip(*queries))
        for row, cell in zip(batch, queries):
            assert row == fine.violation_probability(*cell)

    @pytest.mark.parametrize("query", QUERIES)
    def test_fine_artifact_round_trips(
        self, coarse, fine_oracles, query, tmp_path
    ):
        fine = fine_oracles[query]
        save_tables(fine.tables, tmp_path)
        loaded = SettlementOracle.load(tmp_path)
        assert loaded.describe() == fine.describe()
        assert loaded.describe()["fingerprint"] != (
            coarse.describe()["fingerprint"]
        )
        assert loaded.violation_probability(*query) == (
            fine.violation_probability(*query)
        )

    @pytest.mark.parametrize("query", QUERIES)
    def test_depth_answers_tighten_and_stay_conservative(
        self, coarse, fine_oracles, query
    ):
        fine = fine_oracles[query]
        alpha, fraction, delta, _ = query
        probabilities = effective_probabilities(
            alpha, fraction, delta, TINY_DP_SPEC.activity
        )
        for target in TINY_DP_SPEC.targets:
            depth, source = fine.settlement_depth_with_source(
                alpha, fraction, delta, target
            )
            coarse_depth, coarse_source = coarse.settlement_depth_with_source(
                alpha, fraction, delta, target
            )
            if coarse_source is not None:
                assert source is not None and depth <= coarse_depth
            if source is not None:
                assert at_most(
                    settlement_violation_probability(probabilities, depth),
                    target,
                )


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
                    assert (answer, source) == (None, None)
                elif stored > SPEC.depth_horizon:
                    # Only the certified bound answers past the horizon,
                    # where the DP stays above the target.
                    assert (answer, source) == (stored, "analytic")
                    law = effective_probabilities(
                        alpha, fraction, delta, SPEC.activity
                    )
                    assert (
                        settlement_violation_probability(
                            law, SPEC.depth_horizon
                        )
                        > target
                    )
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
