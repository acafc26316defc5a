"""Rare-event estimators vs the exact DP: the PR 8 validation suite.

The importance-sampling estimator must agree with
``settlement_violation_probability`` (the Section 6.6 exact DP) on
cells where both are computable, and it must keep resolving cells *far*
below direct Monte Carlo's reach — the acceptance cell here has true
probability ``8.45e-10``, where direct MC at any affordable budget
measures exactly zero.
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.analysis.exact import settlement_violation_probability
from repro.analysis.rare_event import (
    SplittingEstimate,
    default_tilted_epsilon,
    direct_mc_projection,
    importance_scenario,
    settlement_is_estimate,
    splitting_settlement_estimate,
    tilt_parameter,
    tilted_probabilities,
)
from repro.core.distributions import (
    bernoulli_condition,
    from_adversarial_stake,
    semi_synchronous_condition,
)
from repro.engine import ExperimentRunner, get_scenario


def scenario_for(probabilities, depth):
    return dataclasses.replace(
        get_scenario("iid-settlement", depth=depth),
        probabilities=probabilities,
    )


class TestTiltAlgebra:
    def test_tilted_law_hits_the_target_epsilon(self):
        base = from_adversarial_stake(0.2, 1.0)
        for target in (0.05, 0.2, 0.5):
            theta = tilt_parameter(base, target)
            tilted = tilted_probabilities(base, theta)
            assert tilted.epsilon == pytest.approx(target)
            # A proper probability law, with unique:multi ratio intact.
            assert tilted.p_unique + tilted.p_multi + tilted.p_adversarial == (
                pytest.approx(1.0)
            )
            assert tilted.p_unique * base.p_multi == pytest.approx(
                tilted.p_multi * base.p_unique
            )

    def test_identity_tilt_is_theta_zero(self):
        base = from_adversarial_stake(0.25, 0.8)
        assert tilt_parameter(base, base.epsilon) == pytest.approx(0.0)
        assert tilted_probabilities(base, 0.0) == base

    def test_default_epsilon_scales_with_depth(self):
        # 1/sqrt(depth), clipped to [0.01, epsilon].
        assert default_tilted_epsilon(100, 0.6) == pytest.approx(0.1)
        assert default_tilted_epsilon(4, 0.6) == pytest.approx(0.5)
        assert default_tilted_epsilon(4, 0.3) == pytest.approx(0.3)  # cap
        assert default_tilted_epsilon(100_000, 0.6) == pytest.approx(0.01)

    def test_validation(self):
        base = from_adversarial_stake(0.2, 1.0)
        with pytest.raises(ValueError, match="depth"):
            default_tilted_epsilon(0, 0.5)
        with pytest.raises(ValueError, match="epsilon"):
            default_tilted_epsilon(10, 1.5)
        with pytest.raises(ValueError):
            tilt_parameter(base, 0.0)
        semi = semi_synchronous_condition(0.5, 0.1, 0.3)
        with pytest.raises(ValueError, match="synchronous"):
            importance_scenario(scenario_for(semi, 10))

    def test_reduced_scenarios_are_rejected(self):
        reduced = get_scenario(
            "delta-synchronous", total_length=60, target_slot=10, depth=8
        )
        with pytest.raises(ValueError, match="reduced"):
            importance_scenario(reduced)


class TestAgainstExactDP:
    @pytest.mark.parametrize(
        "alpha,fraction,depth",
        [(0.20, 1.0, 20), (0.25, 0.8, 20), (0.30, 1.0, 30)],
    )
    def test_table1_cells_within_six_sigma(self, alpha, fraction, depth):
        law = from_adversarial_stake(alpha, fraction)
        exact = settlement_violation_probability(law, depth)
        estimate = settlement_is_estimate(
            scenario_for(law, depth), seed=11, trials=20_000
        )
        assert abs(estimate.value - exact) <= 6.0 * estimate.standard_error

    def test_table1_cell_at_depth_300(self):
        law = from_adversarial_stake(0.40, 1.0)
        exact = settlement_violation_probability(law, 300)
        estimate = settlement_is_estimate(
            scenario_for(law, 300), seed=11, trials=20_000
        )
        assert abs(estimate.value - exact) <= 6.0 * estimate.standard_error

    def test_weights_are_nonnegative_and_finite(self):
        law = bernoulli_condition(0.4, 0.5)
        scenario = scenario_for(law, 15)
        tilted_scenario, estimator = importance_scenario(scenario)
        batch = tilted_scenario.sample_batch(
            256, np.random.default_rng(3)
        )
        weights = estimator(tilted_scenario, batch)
        assert np.all(np.isfinite(weights))
        assert np.all(weights >= 0.0)
        assert np.any(weights > 0.0)  # violations are common when tilted


class TestRareCell:
    """The acceptance criterion: a <= 1e-9 cell, resolved and certified."""

    ALPHA, FRACTION, DEPTH = 0.20, 1.0, 120

    @pytest.fixture(scope="class")
    def law(self):
        return from_adversarial_stake(self.ALPHA, self.FRACTION)

    @pytest.fixture(scope="class")
    def exact(self, law):
        return settlement_violation_probability(law, self.DEPTH)

    def test_cell_is_genuinely_rare(self, exact):
        assert 0.0 < exact <= 1e-9

    def test_direct_mc_measures_zero(self, law):
        runner = ExperimentRunner(
            scenario_for(law, self.DEPTH), chunk_size=4096
        )
        assert runner.run(20_000, seed=11).value == 0.0

    def test_is_resolves_it(self, law, exact):
        estimate = settlement_is_estimate(
            scenario_for(law, self.DEPTH),
            seed=7,
            rel_se=0.25,
            max_trials=150_000,
        )
        assert math.isfinite(estimate.value) and estimate.value > 0.0
        assert estimate.standard_error / estimate.value <= 0.3
        assert abs(estimate.value - exact) <= 6.0 * estimate.standard_error
        # The variance-reduction claim: direct MC would need ~3e10
        # trials for this resolution; IS used a few tens of thousands.
        projected = direct_mc_projection(exact, 0.3)
        assert estimate.trials <= 0.1 * projected


class TestSplitting:
    def test_agrees_with_exact_dp(self):
        law = from_adversarial_stake(0.20, 1.0)
        exact = settlement_violation_probability(law, 60)
        estimate = splitting_settlement_estimate(
            law, depth=60, particles=20_000, seed=5
        )
        assert isinstance(estimate, SplittingEstimate)
        assert estimate.value > 0.0
        # Fixed-effort splitting carries an O(1/N) resampling bias the
        # delta-method SE does not cover; allow one extra SE for it.
        assert abs(estimate.value - exact) <= 7.0 * estimate.standard_error
        assert estimate.as_estimate().trials == 20_000

    @pytest.mark.parametrize(
        "seed,value,standard_error,fractions",
        [
            (
                5,
                0.010851076846934461,
                0.0002574257342253116,
                (1.0, 1.0, 1.0, 0.9999, 0.83485, 0.2938, 0.12935, 0.34205),
            ),
            (
                11,
                0.010719149076483268,
                0.0002553473135101005,
                (1.0, 1.0, 1.0, 0.9998, 0.8403, 0.2919, 0.1282, 0.34095),
            ),
        ],
    )
    def test_pinned_estimates(self, seed, value, standard_error, fractions):
        # Exact values of the per-column margin step the stage scan
        # replaced: the scan must reproduce them bit for bit.
        law = from_adversarial_stake(0.30, 0.9)
        estimate = splitting_settlement_estimate(
            law, depth=60, particles=20_000, seed=seed
        )
        assert estimate == SplittingEstimate(
            value,
            standard_error,
            20_000,
            (8, 16, 24, 32, 40, 48, 56, 60),
            fractions,
        )

    def test_stage_fractions_multiply_to_value(self):
        law = from_adversarial_stake(0.25, 1.0)
        estimate = splitting_settlement_estimate(
            law, depth=40, particles=5_000, seed=9
        )
        assert estimate.value == pytest.approx(
            float(np.prod(estimate.stage_fractions))
        )
        assert estimate.stage_times[-1] == 40

    def test_extinction_returns_zero_with_positive_se(self):
        law = from_adversarial_stake(0.05, 1.0)  # strong honest majority
        estimate = splitting_settlement_estimate(
            law, depth=200, particles=2, seed=1
        )
        assert estimate.value == 0.0
        assert estimate.standard_error > 0.0

    def test_validation(self):
        law = from_adversarial_stake(0.2, 1.0)
        with pytest.raises(ValueError, match="depth"):
            splitting_settlement_estimate(law, 0, 100, 1)
        with pytest.raises(ValueError, match="particles"):
            splitting_settlement_estimate(law, 10, 1, 1)
        with pytest.raises(ValueError, match="stage_length"):
            splitting_settlement_estimate(law, 10, 100, 1, stage_length=0)


class TestProjection:
    def test_projection_formula(self):
        assert direct_mc_projection(0.5, 1.0) == pytest.approx(1.0)
        assert direct_mc_projection(1e-9, 0.3) == pytest.approx(
            (1 - 1e-9) / (1e-9 * 0.09)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            direct_mc_projection(0.0, 0.3)
        with pytest.raises(ValueError):
            direct_mc_projection(0.5, 0.0)
