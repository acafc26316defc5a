"""Bounds 1–3 and the theorem-level error estimates."""

import math

import pytest

from repro.analysis.bounds import (
    bound1_tail,
    bound2_tail,
    bound3_level_probability,
    bound3_return_mass,
    bound3_tail,
    nominal_rate_shape,
    theorem1_asymptotic_rate,
    theorem1_settlement_bound,
    theorem2_settlement_bound,
    theorem7_condition,
    theorem7_settlement_bound,
    theorem8_cp_bound,
    theorem8_cp_bound_consistent,
)
from repro.analysis.exact import (
    TABLE1_UNIQUE_FRACTIONS,
    compute_settlement_probabilities,
    settlement_violation_probability,
)
from repro.analysis.genfunc import bound1_decay_rate, bound2_decay_rate
from repro.core.distributions import (
    bernoulli_condition,
    from_adversarial_stake,
)
from repro.oracle.tables import TINY_SPEC, effective_probabilities


def _window_estimate(estimator, probabilities, length, trials):
    """The engine's estimate of a Catalan-window event over i.i.d.
    strings of ``length`` slots (the whole string is sampled, so the
    window sees its boundary effects)."""
    from repro.engine import run_scenario

    return run_scenario(
        "iid-settlement",
        trials,
        0xC0FFEE,
        estimator=estimator,
        probabilities=probabilities,
        depth=length,
        prefix_model=0,
    )


class TestBound1:
    def test_decreases_in_k(self):
        values = [bound1_tail(0.3, 0.4, k) for k in (5, 10, 20, 40, 80)]
        assert values == sorted(values, reverse=True)

    def test_probability_range(self):
        for k in (0, 1, 10, 100):
            assert 0.0 <= bound1_tail(0.3, 0.4, k) <= 1.0

    def test_zero_unique_mass_gives_trivial_bound(self):
        assert bound1_tail(0.3, 0.0, 50) == 1.0

    def test_prefix_correction_weakens_bound(self):
        with_prefix = bound1_tail(0.3, 0.4, 30, with_prefix=True)
        without = bound1_tail(0.3, 0.4, 30, with_prefix=False)
        assert with_prefix >= without

    def test_eventually_exponential(self):
        """tail(2k)/tail(k) ≈ e^{−rate·k} for large k."""
        epsilon, q_unique = 0.4, 0.4
        rate = theorem1_asymptotic_rate(epsilon, q_unique)
        t1 = bound1_tail(epsilon, q_unique, 200)
        t2 = bound1_tail(epsilon, q_unique, 400)
        observed = -(math.log(t2) - math.log(t1)) / 200
        assert observed == pytest.approx(rate, rel=0.2)


class TestBound2:
    def test_decreases_in_k(self):
        values = [bound2_tail(0.3, k) for k in (5, 10, 20, 40)]
        assert values == sorted(values, reverse=True)

    def test_nontrivial_even_without_unique_slots(self):
        """The headline of Theorem 2: consistency with p_h = 0."""
        assert bound2_tail(0.3, 120) < 0.5

    def test_monte_carlo_dominance(self):
        """M̃ tail ≥ empirical no-consecutive-Catalan rate (corrected Eq. 10)."""
        from repro.engine import NoConsecutiveCatalanInWindow

        epsilon, k = 0.3, 25
        probs = bernoulli_condition(epsilon, 0.0)
        estimate = _window_estimate(
            NoConsecutiveCatalanInWindow(300, k), probs, 600, 1500
        )
        bound = bound2_tail(epsilon, k)
        assert bound >= estimate.value - 4 * estimate.standard_error


class TestTheorem1:
    def test_bounds_exact_probability(self):
        """Theorem 1's bound dominates the exact DP value (Catalan route)."""
        for epsilon, p_unique in ((0.4, 0.4), (0.3, 0.6), (0.5, 0.2)):
            probs = bernoulli_condition(epsilon, p_unique)
            for k in (10, 30, 60):
                exact = settlement_violation_probability(probs, k)
                bound = theorem1_settlement_bound(epsilon, p_unique, k)
                assert bound >= exact, (epsilon, p_unique, k)

    def test_monte_carlo_dominance(self):
        from repro.engine import NoUniqueCatalanInWindow

        epsilon, p_unique, k = 0.35, 0.4, 20
        probs = bernoulli_condition(epsilon, p_unique)
        estimate = _window_estimate(
            NoUniqueCatalanInWindow(300, k), probs, 600, 1500
        )
        bound = bound1_tail(epsilon, p_unique, k)
        assert bound >= estimate.value - 4 * estimate.standard_error

    def test_rate_shape_small_epsilon(self):
        """rate = Θ(ε³) when p_h is a constant fraction of honest mass."""
        ratios = []
        for epsilon in (0.1, 0.2):
            rate = theorem1_asymptotic_rate(epsilon, (1 + epsilon) / 4)
            ratios.append(rate / epsilon**3)
        assert 0.05 < ratios[0] / ratios[1] < 20

    def test_rate_shape_small_unique_mass(self):
        """rate = Θ(ε² p_h) when p_h → 0 at fixed ε."""
        epsilon = 0.3
        rates = [
            theorem1_asymptotic_rate(epsilon, q) for q in (0.04, 0.02, 0.01)
        ]
        # halving p_h roughly halves the rate
        assert rates[0] / rates[1] == pytest.approx(2.0, rel=0.35)
        assert rates[1] / rates[2] == pytest.approx(2.0, rel=0.35)

    def test_nominal_shape_helper(self):
        assert nominal_rate_shape(0.1, 0.5) == pytest.approx(1e-3)
        assert nominal_rate_shape(0.5, 0.001) == pytest.approx(0.25 * 0.001)


#: The Table 1 laws whose rate the DP window below resolves: at α = 0.49
#: (ε = 0.02) the walk needs ~1/ε³ slots to reach its asymptote.
RATE_LAWS = [
    (("table1", alpha, fraction), from_adversarial_stake(alpha, fraction))
    for alpha in (0.01, 0.10, 0.20, 0.30, 0.40)
    for fraction in TABLE1_UNIQUE_FRACTIONS
] + [
    (
        ("tiny", alpha, fraction, delta),
        effective_probabilities(alpha, fraction, delta, TINY_SPEC.activity),
    )
    for alpha in TINY_SPEC.alphas
    for fraction in TINY_SPEC.unique_fractions
    for delta in TINY_SPEC.deltas
]


@pytest.fixture(scope="module")
def decay_rates():
    """``{law: (ε, p_h, rate)}``, the rate read from one DP sweep as
    −ln(p(600)/p(550))/50.

    p(k+1)/p(k) rises towards the law's λ, so this window reads the true
    rate −ln λ from above: a bound exponent below it can still exceed
    −ln λ by the window's error.  At the tightest law, (0.01, 0.01), the
    bound sits 1.1e-6 (relative) below the window rate.
    """
    rates = {}
    for name, law in RATE_LAWS:
        p = compute_settlement_probabilities(law, [550, 600])
        epsilon = 1.0 - 2.0 * law.p_adversarial
        rates[name] = (epsilon, law.p_unique, -math.log(p[600] / p[550]) / 50)
    return rates


class TestDecayRateAgainstTheLaw:
    """Theorem 1's exponent against the rate the exact DP decays at."""

    def test_bound1_rate_never_exceeds_the_true_rate(self, decay_rates):
        """Bound 1 dominates the DP at large k only if its exponent is at
        most the law's; measured bound/true: 0.2425–0.99999889 on Table 1,
        0.293–0.724 on the TINY_SPEC laws."""
        assert len(decay_rates) == 42
        for name, (epsilon, p_unique, rate) in decay_rates.items():
            assert bound1_decay_rate(epsilon, p_unique) <= rate, name

    def test_bound1_is_tight_when_unique_slots_are_scarce(self, decay_rates):
        """At Table 1's fraction 0.01 nearly every honest slot is multiply
        honest, and Bound 1's exponent is within 3 % of the true one
        (measured 0.978–0.99999889)."""
        scarce = [
            name
            for name in decay_rates
            if name[0] == "table1" and name[2] == 0.01
        ]
        assert len(scarce) == 5
        for name in scarce:
            epsilon, p_unique, rate = decay_rates[name]
            assert bound1_decay_rate(epsilon, p_unique) >= 0.97 * rate, name

    def test_bound2_rate_only_bounds_uniquely_honest_laws(self, decay_rates):
        """Theorem 2 is a statement about another model: bivalent strings
        (every honest slot multiply honest) under the consistent
        tie-breaking axiom A0′, where two consecutive Catalan slots settle.
        Its exponent depends on ε alone.  The DP breaks ties adversarially
        (axiom A0), where only a uniquely honest Catalan slot settles, so
        that exponent bounds only the laws with no multiply honest slots
        (fraction 1.0, where it is Bound 1's exponent; measured
        0.243–0.650 of the true rate).  At fraction 0.01 it is 5–81× the
        true rate (80.7× at (0.01, 0.01))."""
        for name, (epsilon, p_unique, rate) in decay_rates.items():
            fraction = name[2]
            if fraction == 1.0:
                assert bound2_decay_rate(epsilon) <= rate, name
                assert bound2_decay_rate(epsilon) == pytest.approx(
                    bound1_decay_rate(epsilon, p_unique)
                )
            elif fraction == 0.01:
                assert bound2_decay_rate(epsilon) > rate, name


class TestTheorem2:
    def test_beats_theorem1_at_vanishing_unique_mass(self):
        """Where Theorem 1 degrades (p_h → 0), Theorem 2 stays ε³-strong."""
        epsilon, k = 0.4, 150
        weak = theorem1_settlement_bound(epsilon, 0.005, k)
        strong = theorem2_settlement_bound(epsilon, k)
        assert strong < weak

    def test_slope_falls_toward_decay_rate(self):
        """``−log`` of the bound over a window of k climbs faster than
        Bound 2's rate, and ever closer to it as k grows."""
        epsilon, window = 0.2, 100
        rate = bound2_decay_rate(epsilon)
        slopes = [
            math.log(
                theorem2_settlement_bound(epsilon, k)
                / theorem2_settlement_bound(epsilon, k + window)
            )
            / window
            for k in (400, 800, 1600)
        ]
        assert slopes == sorted(slopes, reverse=True)
        assert slopes[-1] > rate
        assert slopes[-1] - rate < (slopes[0] - rate) / 2


class TestBound3:
    def test_level_probability_parity(self):
        assert bound3_level_probability(0.3, 5, 2) == 0.0
        assert bound3_level_probability(0.3, 5, 1) > 0.0

    def test_level_probability_is_binomial(self):
        epsilon, k, level = 0.2, 6, 2
        p, q = (1 - epsilon) / 2, (1 + epsilon) / 2
        expected = math.comb(6, 4) * q**4 * p**2
        assert bound3_level_probability(epsilon, k, level) == pytest.approx(
            expected
        )

    def test_return_mass_increases_with_delta(self):
        masses = [bound3_return_mass(0.3, 10, d) for d in (0, 2, 4, 6)]
        assert masses == sorted(masses)

    def test_tail_decreases_in_k(self):
        values = [bound3_tail(0.3, k, 3) for k in (20, 40, 80)]
        assert values == sorted(values, reverse=True)

    def test_tail_increases_in_delta(self):
        values = [bound3_tail(0.3, 40, d) for d in (0, 2, 5, 10)]
        assert values == sorted(values)


class TestTheorem7:
    def test_condition_formula(self):
        value = theorem7_condition(0.02, 0.1, 4)
        beta = 0.9**4
        assert value == pytest.approx(0.02 * beta / 0.1 + (1 - beta))

    def test_bound_degrades_with_delta(self):
        values = [
            theorem7_settlement_bound(0.05, 0.005, 0.04, delta, 400)
            for delta in (0, 2, 4, 8)
        ]
        assert values == sorted(values)

    def test_bound_trivial_when_condition_fails(self):
        # huge delay: reduced adversarial mass > 1/2 -> no guarantee
        assert theorem7_settlement_bound(0.5, 0.1, 0.3, 20, 100) == 1.0

    def test_bound_nontrivial_for_praos_like_parameters(self):
        value = theorem7_settlement_bound(0.05, 0.005, 0.04, 2, 600)
        assert value < 0.1


class TestTheorem8:
    def test_union_bound_scales_with_length(self):
        single = bound1_tail(0.4, 0.5, 60)
        total = theorem8_cp_bound(1000, 0.4, 0.5, 60)
        assert total == pytest.approx(min(1000 * single, 1.0))

    def test_consistent_variant(self):
        value = theorem8_cp_bound_consistent(1000, 0.4, 200)
        assert 0.0 <= value <= 1.0
