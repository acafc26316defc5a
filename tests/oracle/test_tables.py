"""OracleSpec validation, effective laws, and the table builder."""

import dataclasses

import numpy as np
import pytest

import repro.oracle.tables as tables_module
from repro.analysis.exact import (
    compute_settlement_probabilities,
    settlement_violation_probability,
)
from repro.core.distributions import from_adversarial_stake
from repro.engine.cache import ResultCache
from repro.engine.parallel import ProcessBackend
from repro.oracle.tables import (
    ANALYTIC_HORIZON_FACTOR,
    DEFAULT_SPEC,
    TINY_SPEC,
    OracleSpec,
    OracleTables,
    _analytic_depth_row,
    _dp_rows,
    build_tables,
    effective_probabilities,
)

SPEC = OracleSpec(
    alphas=(0.1, 0.3),
    unique_fractions=(0.5, 1.0),
    deltas=(0, 2),
    depths=(4, 8, 16),
    targets=(1e-1, 1e-2),
    activity=0.05,
)

MC_SPEC = dataclasses.replace(
    SPEC, mc_depths=(4, 8), mc_trials=2_000, mc_seed=909
)

#: TINY_SPEC without the Monte-Carlo cross-check: DP and bound only.
TINY_DP_SPEC = dataclasses.replace(
    TINY_SPEC, mc_trials=0, mc_depths=(), mc_target_se=0.0
)


class TestSpecValidation:
    def test_axes_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            dataclasses.replace(SPEC, alphas=(0.3, 0.1))
        with pytest.raises(ValueError, match="strictly increasing"):
            dataclasses.replace(SPEC, depths=(8, 8))

    def test_targets_must_decrease(self):
        with pytest.raises(ValueError, match="strictly decreasing"):
            dataclasses.replace(SPEC, targets=(1e-2, 1e-1))

    def test_delta_needs_activity(self):
        with pytest.raises(ValueError, match="activity"):
            dataclasses.replace(SPEC, activity=1.0)

    def test_mc_depths_subset(self):
        with pytest.raises(ValueError, match="subset"):
            dataclasses.replace(MC_SPEC, mc_depths=(4, 9))

    def test_mc_trials_need_depths(self):
        with pytest.raises(ValueError, match="mc_depths"):
            dataclasses.replace(SPEC, mc_trials=100)

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("mc_seed", -1, "mc_seed must be non-negative"),
            ("mc_chunk_size", 0, "mc_chunk_size must be positive"),
        ],
    )
    def test_mc_run_knobs_checked_at_spec_time(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(MC_SPEC, **{field: value})

    def test_reduced_law_must_keep_honest_majority(self):
        # High delta at low activity pushes p'_A past 1/2.
        with pytest.raises(ValueError, match="honest majority"):
            dataclasses.replace(SPEC, deltas=(0, 40), alphas=(0.1, 0.45))


class TestEffectiveProbabilities:
    def test_synchronous_matches_table1_law(self):
        assert effective_probabilities(0.2, 0.8, 0) == from_adversarial_stake(
            0.2, 0.8
        )

    def test_delta_zero_with_activity_deletes_empties(self):
        law = effective_probabilities(0.2, 0.8, 0, activity=0.05)
        assert law.p_empty == 0.0
        assert law.p_adversarial == pytest.approx(0.2)
        assert law.p_unique == pytest.approx(0.8 * 0.8)

    def test_delta_strengthens_adversary(self):
        flat = effective_probabilities(0.2, 0.8, 0, activity=0.05)
        slow = effective_probabilities(0.2, 0.8, 2, activity=0.05)
        assert slow.p_adversarial > flat.p_adversarial
        assert slow.p_unique < flat.p_unique

    def test_fully_active_delta_rejected(self):
        with pytest.raises(ValueError, match="activity"):
            effective_probabilities(0.2, 0.8, 1, activity=1.0)


class TestBuild:
    def test_forward_cells_bit_identical_to_dp_sweep(self):
        tables = build_tables(SPEC).tables
        for i, j, l, alpha, fraction, delta in SPEC.combos():
            law = effective_probabilities(alpha, fraction, delta, SPEC.activity)
            # A forward cell is the combo's DP sweep read out at k.
            sweep = compute_settlement_probabilities(
                law, list(range(1, SPEC.depth_horizon + 1))
            )
            for m, k in enumerate(SPEC.depths):
                assert tables.forward[i, j, l, m] == sweep[k]

    def test_forward_cells_match_per_depth_dp(self):
        # The band depends on the horizon, so a per-k run may differ
        # from the sweep's read-out in the last ulp — never more.
        tables = build_tables(TINY_DP_SPEC).tables
        for i, j, l, alpha, fraction, delta in TINY_DP_SPEC.combos():
            law = effective_probabilities(
                alpha, fraction, delta, TINY_DP_SPEC.activity
            )
            for m, k in enumerate(TINY_DP_SPEC.depths):
                per_depth = settlement_violation_probability(law, k)
                assert tables.forward[i, j, l, m] == pytest.approx(
                    per_depth, rel=1e-13, abs=0.0
                )

    def test_one_dp_sweep_per_combo(self, monkeypatch):
        calls = []

        def counting(probabilities, depths):
            calls.append(max(depths))
            return compute_settlement_probabilities(probabilities, depths)

        monkeypatch.setattr(
            tables_module, "compute_settlement_probabilities", counting
        )
        build_tables(TINY_DP_SPEC)
        combos = len(list(TINY_DP_SPEC.combos()))
        assert calls == [TINY_DP_SPEC.depth_horizon] * combos
        assert not hasattr(tables_module, "settlement_violation_probability")

    def test_minimal_depth_consistent_with_forward(self):
        tables = build_tables(SPEC).tables
        for i, j, l, alpha, fraction, delta in SPEC.combos():
            law = effective_probabilities(alpha, fraction, delta, SPEC.activity)
            for n, target in enumerate(SPEC.targets):
                k = int(tables.minimal_depth[i, j, l, n])
                if k < 0 or k > SPEC.depth_horizon:
                    # DP-unreachable (served -1, or a certified depth
                    # past the horizon): the horizon depth stays above.
                    assert (
                        settlement_violation_probability(
                            law, SPEC.depth_horizon
                        )
                        > target
                    )
                    continue
                assert settlement_violation_probability(law, k) <= target
                if k > 1:
                    assert (
                        settlement_violation_probability(law, k - 1) > target
                    )

    def test_minimal_depth_monotone_in_target(self):
        tables = build_tables(SPEC).tables
        minimal = tables.minimal_depth
        reachable = minimal >= 0
        # Stricter target (later index) never needs a shallower block.
        first, second = minimal[..., 0], minimal[..., 1]
        both = reachable[..., 0] & reachable[..., 1]
        assert np.all(second[both] >= first[both])
        # A reachable strict target implies the looser one is reachable.
        assert np.all(reachable[..., 0] | ~reachable[..., 1])

    def test_mc_cross_check_runs_and_caches(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        report = build_tables(MC_SPEC, cache=cache)
        assert report.mc_points == len(list(MC_SPEC.combos())) * 2
        assert report.mc_cached == 0
        rerun = build_tables(MC_SPEC, cache=cache)
        assert rerun.mc_cached == rerun.mc_points  # zero re-estimation
        assert np.array_equal(report.tables.forward, rerun.tables.forward)

    def test_workers_do_not_change_tables(self):
        serial = build_tables(SPEC).tables
        with ProcessBackend(2) as pool:
            parallel = build_tables(SPEC, backend=pool).tables
        assert np.array_equal(serial.forward, parallel.forward)
        assert np.array_equal(serial.minimal_depth, parallel.minimal_depth)

    def test_tables_shape_validation(self):
        tables = build_tables(SPEC).tables
        with pytest.raises(ValueError, match="shape"):
            OracleTables(
                spec=SPEC,
                forward=tables.forward[..., :-1],
                minimal_depth=tables.minimal_depth,
            )


class TestAnalyticDepth:
    """The Bound 1 fallback column: pinned values and certified dominance."""

    def test_tiny_spec_analytic_depths_golden(self):
        horizon = ANALYTIC_HORIZON_FACTOR * TINY_DP_SPEC.depth_horizon
        rows = np.empty(
            TINY_DP_SPEC.shape[:3] + (len(TINY_DP_SPEC.targets),), dtype=int
        )
        for i, j, l, alpha, fraction, delta in TINY_DP_SPEC.combos():
            law = effective_probabilities(
                alpha, fraction, delta, TINY_DP_SPEC.activity
            )
            rows[i, j, l] = _analytic_depth_row(
                law, horizon, TINY_DP_SPEC.targets
            )
        assert rows.tolist() == [
            [[[8, 16, 25], [15, 32, 52]], [[5, 11, 19], [10, 25, 44]]],
            [[[16, 36, 58], [34, 80, 135]], [[11, 29, 50], [25, 69, 121]]],
            [[[43, 106, 179], [125, -1, -1]], [[34, 92, 164], [105, -1, -1]]],
        ]

    @pytest.mark.parametrize(
        "alpha, fraction, delta, expected",
        [
            (0.30, 0.9, 2, [107, 302, 538, 795, 1065, 1344, -1, -1]),
            (0.05, 1.0, 0, [4, 7, 11, 16, 21, 26, 37, 48]),
            (0.20, 0.5, 1, [23, 53, 87, 124, 162, 202, 283, 366]),
        ],
    )
    def test_default_spec_analytic_rows_golden(
        self, alpha, fraction, delta, expected
    ):
        law = effective_probabilities(
            alpha, fraction, delta, DEFAULT_SPEC.activity
        )
        horizon = ANALYTIC_HORIZON_FACTOR * DEFAULT_SPEC.depth_horizon
        row = _analytic_depth_row(law, horizon, DEFAULT_SPEC.targets)
        assert row == expected

    @pytest.mark.parametrize("spec", [TINY_DP_SPEC, SPEC], ids=["tiny", "test"])
    def test_analytic_depth_dominates_minimal_depth(self, spec):
        """Every analytic depth is a certified upper bound on the DP depth.

        Per cell one holds: the bound certifies nothing (``−1``), the DP
        depth is finite and no deeper than the bound's, or the DP horizon
        is too short and the bound's depth lies beyond it.
        """
        horizon = ANALYTIC_HORIZON_FACTOR * spec.depth_horizon
        for *_, alpha, fraction, delta in spec.combos():
            law = effective_probabilities(alpha, fraction, delta, spec.activity)
            minimal = np.array(_dp_rows(law, spec.depths, spec.targets)[1])
            analytic = np.array(_analytic_depth_row(law, horizon, spec.targets))
            ok = (
                (analytic == -1)
                | ((minimal >= 0) & (minimal <= analytic))
                | ((minimal == -1) & (analytic > spec.depth_horizon))
            )
            assert ok.all(), (alpha, fraction, delta, minimal, analytic)

    def test_tiny_spec_served_depths_golden(self):
        """One depth per cell: the DP's within the horizon (30), the
        certified bound's past it, -1 where neither reaches the target."""
        tables = build_tables(TINY_DP_SPEC).tables
        assert tables.minimal_depth.tolist() == [
            [[[7, 15, 22], [13, 28, 52]], [[4, 9, 15], [8, 20, 44]]],
            [[[14, 30, 58], [27, 80, 135]], [[9, 22, 50], [19, 69, 121]]],
            [[[43, 106, 179], [125, -1, -1]], [[25, 92, 164], [105, -1, -1]]],
        ]

    def test_undercutting_bound_fails_the_build(self, monkeypatch, tmp_path):
        """A Bound 1 row shallower than the DP on one combo: no artifact."""
        victim = effective_probabilities(0.1, 0.5, 0, TINY_DP_SPEC.activity)
        certified = tables_module._analytic_depth_row

        def undercutting(probabilities, horizon, targets):
            if probabilities != victim:
                return certified(probabilities, horizon, targets)
            _, minimal = _dp_rows(probabilities, TINY_DP_SPEC.depths, targets)
            return [k - 1 for k in minimal]

        monkeypatch.setattr(tables_module, "_analytic_depth_row", undercutting)
        with pytest.raises(RuntimeError, match="undercuts the exact DP"):
            build_tables(TINY_DP_SPEC, out_dir=tmp_path / "artifact")
        assert not (tmp_path / "artifact").exists()
