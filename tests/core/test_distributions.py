"""Slot distributions: the Bernoulli condition and dominance (Defs. 6, 7)."""

import math

import numpy as np
import pytest

from repro.core.distributions import (
    SlotProbabilities,
    bernoulli_condition,
    bivalent_condition,
    exact_string_probability,
    from_adversarial_stake,
    sample_characteristic_string,
    semi_synchronous_condition,
)
from repro.core.margin import relative_margin
from repro.engine import ExperimentRunner, get_scenario, kernels

from tests.conftest import all_strings
from tests.core.references import dominating_strings


class TestSlotProbabilities:
    def test_must_sum_to_one(self):
        with pytest.raises(ValueError):
            SlotProbabilities(0.5, 0.5, 0.5)

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError):
            SlotProbabilities(-0.1, 0.6, 0.5)

    def test_epsilon(self):
        probs = SlotProbabilities(0.4, 0.3, 0.3)
        assert math.isclose(probs.epsilon, 0.4)

    def test_honest_mass(self):
        probs = SlotProbabilities(0.4, 0.3, 0.3)
        assert math.isclose(probs.p_honest, 0.7)

    def test_activity(self):
        probs = SlotProbabilities(0.1, 0.1, 0.1, 0.7)
        assert math.isclose(probs.activity, 0.3)


class TestBernoulliCondition:
    def test_definition_7_parameters(self):
        probs = bernoulli_condition(epsilon=0.2, p_unique=0.3)
        assert math.isclose(probs.p_adversarial, 0.4)
        assert math.isclose(probs.p_unique, 0.3)
        assert math.isclose(probs.p_multi, 0.3)

    def test_p_unique_cannot_exceed_honest_mass(self):
        with pytest.raises(ValueError):
            bernoulli_condition(epsilon=0.2, p_unique=0.7)

    def test_epsilon_range_enforced(self):
        with pytest.raises(ValueError):
            bernoulli_condition(epsilon=0.0, p_unique=0.1)
        with pytest.raises(ValueError):
            bernoulli_condition(epsilon=1.0, p_unique=0.1)

    def test_bivalent_condition_has_no_unique_slots(self):
        probs = bivalent_condition(0.3)
        assert probs.p_unique == 0.0
        assert math.isclose(probs.p_multi, (1 + 0.3) / 2)

    def test_from_adversarial_stake_matches_table1_parameterisation(self):
        probs = from_adversarial_stake(0.2, 0.8)
        assert math.isclose(probs.p_adversarial, 0.2)
        assert math.isclose(probs.p_unique, 0.64)
        assert math.isclose(probs.p_multi, 0.16)

    def test_semi_synchronous_condition(self):
        probs = semi_synchronous_condition(0.3, 0.1, 0.15)
        assert math.isclose(probs.p_empty, 0.7)
        assert math.isclose(probs.p_multi, 0.05)


class TestSampling:
    def test_sample_length_and_alphabet(self, rng):
        probs = bernoulli_condition(0.3, 0.2)
        word = sample_characteristic_string(probs, 500, rng)
        assert len(word) == 500
        assert set(word) <= set("hHA")

    def test_sample_frequencies_match(self, rng):
        probs = bernoulli_condition(0.3, 0.2)
        word = sample_characteristic_string(probs, 40_000, rng)
        assert abs(word.count("h") / len(word) - 0.2) < 0.01
        assert abs(word.count("A") / len(word) - 0.35) < 0.01

    def test_semi_synchronous_sampling_includes_empty(self, rng):
        probs = semi_synchronous_condition(0.3, 0.1, 0.1)
        word = sample_characteristic_string(probs, 2_000, rng)
        assert "." in word

    def test_exact_string_probability(self):
        probs = bernoulli_condition(0.5, 0.25)
        value = exact_string_probability(probs, "hA")
        assert math.isclose(value, 0.25 * 0.25)

    def test_exact_probabilities_sum_to_one(self):
        probs = bernoulli_condition(0.4, 0.3)
        total = sum(
            exact_string_probability(probs, w)
            for w in all_strings("hHA", 4, min_length=4)
        )
        assert math.isclose(total, 1.0)


class TestMartingaleDominance:
    def test_martingale_sampler_is_less_adversarial(self):
        """The damped sampler's A-frequency must not exceed the i.i.d. one."""
        probs = bernoulli_condition(0.2, 0.3)
        codes = kernels.sample_martingale_matrix(
            probs, 40, 1_000, np.random.default_rng(11), correlation=0.5
        )
        frequency = (codes == kernels.CODE_ADVERSARIAL).mean()
        assert frequency <= probs.p_adversarial + 0.01

    def test_martingale_violation_rate_dominated(self):
        """Monotone events are at most as likely under the damped law.

        The settlement-violation indicator is monotone (Theorem 1's
        argument); compare Monte-Carlo rates at another law and
        correlation than the registered ``martingale-damped`` scenario.
        """
        law = dict(
            probabilities=bernoulli_condition(0.1, 0.2), depth=12, prefix_model=4
        )
        damped = get_scenario("martingale-damped", correlation=0.3, **law)
        iid = get_scenario("martingale-damped", sampler="iid", **law)
        low = ExperimentRunner(damped).run(8_000, seed=12)
        high = ExperimentRunner(iid).run(8_000, seed=12)
        slack = 4 * (low.standard_error + high.standard_error)
        assert low.value <= high.value + slack

    def test_violation_indicator_is_monotone(self):
        """Settlement violation is a monotone event in the Def. 6 order."""
        for word in all_strings("hHA", 5, min_length=5):
            if relative_margin(word, 2) >= 0:
                for upper in dominating_strings(word):
                    assert relative_margin(upper, 2) >= 0, (word, upper)
