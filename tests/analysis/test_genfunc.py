"""Generating functions of Section 5: coefficients, identities, radii."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.analysis import genfunc
from repro.core.walks import bias_probabilities, stationary_reach_ratio

EPSILONS = (0.05, 0.3, 0.6, 0.9)


def catalan_ratio_series(lead: float, epsilon: float, order: int) -> np.ndarray:
    """``c_{2i+1} = lead · C_i (pq)^i`` by the Catalan ratio recurrence.

    ``C_{i+1}/C_i = 2(2i + 1)/(i + 2)``, one float step per term.
    """
    p, q = bias_probabilities(epsilon)
    series = np.zeros(order + 1)
    coefficient = lead  # c_1 = C_0 · lead
    for i in range(0, (order - 1) // 2 + 1):
        series[2 * i + 1] = coefficient
        coefficient *= 2.0 * (2 * i + 1) / (i + 2) * p * q
    return series


def ascent_series(epsilon: float, order: int) -> np.ndarray:
    """Coefficients of ``A(Z)``: ``a_{2i+1} = C_i q^i p^{i+1}``.

    Defective: the total mass is ``A(1) = p/q < 1``.
    """
    p, _ = bias_probabilities(epsilon)
    return catalan_ratio_series(p, epsilon, order)


def descent_series_loop(epsilon: float, order: int) -> np.ndarray:
    """:func:`genfunc.descent_series` one ratio-recurrence step at a time."""
    _, q = bias_probabilities(epsilon)
    return catalan_ratio_series(q, epsilon, order)


def horner_compose(outer, inner, order):
    """``outer(inner(Z))`` truncated to ``order`` terms, by Horner.

    The O(order³) reference for :func:`genfunc.ascent_of_z_descent`:
    one full-length series multiplication per outer coefficient.
    Requires ``inner[0] == 0``.
    """
    if abs(inner[0]) > 0:
        raise ValueError("series composition requires inner[0] == 0")
    result = np.zeros(order + 1)
    for coefficient in outer[order::-1] if len(outer) > order else outer[::-1]:
        result = genfunc.series_multiply(result, inner, order)
        result[0] += coefficient
    return result


def inverse_one_minus_recurrence(series, order):
    """``1 / (1 − series)`` one coefficient at a time.

    The term-by-term reference for :func:`genfunc.series_inverse_one_minus`:
    ``r_n = Σ_{i=1..n} f_i r_{n−i}``, one dot product per coefficient.
    """
    result = np.zeros(order + 1)
    result[0] = 1.0
    f = series[: order + 1]
    for n in range(1, order + 1):
        top = min(n, len(f) - 1)
        result[n] = float(np.dot(f[1 : top + 1], result[n - 1 :: -1][:top]))
    return result


def ascent_of_z_descent_recurrence(epsilon, order):
    """``A(Z·D(Z))`` one coefficient at a time, from ``B = pX + qX·B²``.

    The term-by-term reference for :func:`genfunc.ascent_of_z_descent`:
    since ``X₀ = X₁ = 0``, ``b_n`` needs ``B²`` only up to ``n − 2``, so

        ``S_{n−2} = Σ_j b_j b_{n−2−j}``,
        ``b_n = p X_n + q Σ_{i=2..n} X_i S_{n−i}``

    is two dot products per term.
    """
    p, q = bias_probabilities(epsilon)
    inner = genfunc.z_times(genfunc.descent_series(epsilon, order), order)
    composed = np.zeros(order + 1)
    squared = np.zeros(order + 1)  # squared[m] = [Z^m] B²
    for n in range(2, order + 1):
        squared[n - 2] = np.dot(composed[: n - 1], composed[n - 2 :: -1])
        composed[n] = p * inner[n] + q * np.dot(
            inner[2 : n + 1], squared[n - 2 :: -1]
        )
    return composed


def assert_matches_reference(series, reference):
    """rtol 1e-13 and the same zeros wherever ``reference`` is normal.

    Past the last coefficient ≥ 1e-290 the tail is subnormal or
    underflowed, where a different summation order may round a
    coefficient to zero or not, so the zero pattern is compared only
    up to there.
    """
    normal = reference >= 1e-290
    head = np.flatnonzero(normal).max(initial=-1) + 1
    assert np.array_equal(series[:head] == 0.0, reference[:head] == 0.0)
    assert np.allclose(series[normal], reference[normal], rtol=1e-13, atol=0.0)


@st.composite
def inverse_inputs(draw):
    """A non-negative ``f`` with ``f[0] = 0``, shorter or longer than the order.

    Coefficients are 0 or in [1e-3, 1], and orders stay ≤ 40, so no
    product underflows and the zero patterns must agree exactly.
    """
    order = draw(st.integers(0, 40))
    tail = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(1e-3, 1.0)),
            max_size=2 * order + 2,
        )
    )
    return np.array([0.0] + tail), order


class TestSeriesArithmetic:
    def test_multiply(self):
        a = np.array([1.0, 1.0])
        b = np.array([1.0, 2.0, 1.0])
        product = genfunc.series_multiply(a, b, 4)
        assert list(product) == [1.0, 3.0, 3.0, 1.0, 0.0]

    def test_compose(self):
        outer = np.array([1.0, 1.0, 1.0])  # 1 + x + x^2
        inner = np.array([0.0, 2.0])  # 2Z
        composed = horner_compose(outer, inner, 3)
        assert list(composed) == [1.0, 2.0, 4.0, 0.0]

    def test_compose_requires_zero_constant(self):
        with pytest.raises(ValueError):
            horner_compose(np.array([1.0]), np.array([1.0, 1.0]), 3)

    def test_inverse_one_minus(self):
        f = np.array([0.0, 0.5])
        inv = genfunc.series_inverse_one_minus(f, 4)
        assert np.allclose(inv, [1, 0.5, 0.25, 0.125, 0.0625])

    @pytest.mark.parametrize("order", [2, 3, 4, 16, 400, 1920])
    @pytest.mark.parametrize("epsilon", EPSILONS)
    def test_inverse_one_minus_matches_recurrence(self, epsilon, order):
        """Doubling reproduces the term-by-term reciprocal on both of
        Theorem 1's denominators: Bound 1's ``F(Z)`` and ``β·D(Z)``."""
        p, q = bias_probabilities(epsilon)
        descent = genfunc.descent_series(epsilon, order)
        ascent = ascent_of_z_descent_recurrence(epsilon, order)
        f_series = genfunc.z_times(p * descent + 0.5 * q * ascent, order)
        f_series[1] += 0.5 * q
        for series in (f_series, stationary_reach_ratio(epsilon) * descent):
            assert_matches_reference(
                genfunc.series_inverse_one_minus(series, order),
                inverse_one_minus_recurrence(series, order),
            )

    @given(inverse_inputs())
    def test_inverse_one_minus_property(self, case):
        series, order = case
        inverse = genfunc.series_inverse_one_minus(series, order)
        reference = inverse_one_minus_recurrence(series, order)
        assert inverse.shape == (order + 1,)
        assert np.array_equal(inverse == 0.0, reference == 0.0)
        assert np.allclose(inverse, reference, rtol=1e-13, atol=0.0)

    def test_inverse_requires_zero_constant(self):
        with pytest.raises(ValueError):
            genfunc.series_inverse_one_minus(np.array([0.1, 0.5]), 4)

    def test_inverse_identity(self):
        f = np.array([0.0, 0.3, 0.2, 0.1])
        inv = genfunc.series_inverse_one_minus(f, 10)
        one_minus_f = -f.copy()
        one_minus_f[0] += 1.0
        product = genfunc.series_multiply(one_minus_f, inv, 10)
        assert math.isclose(product[0], 1.0)
        assert np.allclose(product[1:], 0.0, atol=1e-12)


class TestCatalanNumbers:
    def test_first_values(self):
        """``d_{2i+1} / (p^i q^{i+1})`` reads off C_i = 1, 1, 2, 5, 14, 42."""
        p, q = bias_probabilities(0.3)
        series = genfunc.descent_series(0.3, 11)
        values = [series[2 * i + 1] / (p**i * q ** (i + 1)) for i in range(6)]
        assert np.allclose(values, [1, 1, 2, 5, 14, 42], rtol=1e-12)
        assert np.all(series[0::2] == 0.0)


class TestWalkSeries:
    def test_descent_is_probability_series(self):
        series = genfunc.descent_series(0.3, 400)
        assert series[0] == 0.0
        assert series.min() >= 0.0
        assert series.sum() == pytest.approx(1.0, abs=1e-6)

    def test_descent_satisfies_functional_equation(self):
        """D = qZ + pZ D² as truncated series."""
        epsilon = 0.25
        p, q = bias_probabilities(epsilon)
        order = 60
        descent = genfunc.descent_series(epsilon, order)
        squared = genfunc.series_multiply(descent, descent, order)
        rhs = p * genfunc.z_times(squared, order)
        rhs[1] += q
        assert np.allclose(descent, rhs, atol=1e-12)

    @pytest.mark.parametrize("epsilon", EPSILONS)
    def test_descent_series_matches_loop(self, epsilon):
        """Bit-identical to the ratio-recurrence loop at orders 0–3000.

        The loop's coefficients at a lower order are a prefix of its
        coefficients at 3000, so one loop serves every order.
        """
        reference = descent_series_loop(epsilon, 3000)
        for order in range(3001):
            assert np.array_equal(
                genfunc.descent_series(epsilon, order), reference[: order + 1]
            )
        assert np.array_equal(
            genfunc.descent_series(epsilon, 17), descent_series_loop(epsilon, 17)
        )

    @pytest.mark.parametrize("order", [2, 3, 4, 16, 400, 1920])
    @pytest.mark.parametrize("epsilon", EPSILONS)
    def test_ascent_of_z_descent_matches_recurrence(self, epsilon, order):
        """Doubling reproduces the term-by-term fixed-point recurrence."""
        assert_matches_reference(
            genfunc.ascent_of_z_descent(epsilon, order),
            ascent_of_z_descent_recurrence(epsilon, order),
        )

    @pytest.mark.parametrize("order", [16, 400])
    @pytest.mark.parametrize("epsilon", EPSILONS)
    def test_ascent_of_z_descent_matches_horner(self, epsilon, order):
        """The doubled fixed point reproduces Horner composition."""
        composed = genfunc.ascent_of_z_descent(epsilon, order)
        reference = horner_compose(
            ascent_series(epsilon, order),
            genfunc.z_times(genfunc.descent_series(epsilon, order), order),
            order,
        )
        assert np.array_equal(composed == 0.0, reference == 0.0)
        normal = reference >= 1e-290
        assert np.allclose(
            composed[normal], reference[normal], rtol=1e-13, atol=0.0
        )

    def test_ascent_of_z_descent_satisfies_functional_equation(self):
        """B = pX + qX B² with B = A(X), X = Z D(Z), as truncated series."""
        epsilon = 0.25
        p, q = bias_probabilities(epsilon)
        order = 60
        composed = genfunc.ascent_of_z_descent(epsilon, order)
        inner = genfunc.z_times(genfunc.descent_series(epsilon, order), order)
        squared = genfunc.series_multiply(composed, composed, order)
        rhs = p * inner + q * genfunc.series_multiply(inner, squared, order)
        assert np.allclose(composed, rhs, atol=1e-12)

    def test_ascent_mass_is_ruin_probability(self):
        epsilon = 0.3
        p, q = bias_probabilities(epsilon)
        series = ascent_series(epsilon, 600)
        assert series.sum() == pytest.approx(p / q, abs=1e-6)

    def test_descent_coefficients_match_simulation(self, rng):
        from repro.core.walks import sample_descent_time

        epsilon = 0.3
        series = genfunc.descent_series(epsilon, 20)
        samples = [sample_descent_time(epsilon, rng) for _ in range(20000)]
        for t in (1, 3, 5, 7):
            empirical = sum(1 for s in samples if s == t) / len(samples)
            assert abs(empirical - series[t]) < 0.01


class TestDominatingSeries:
    def test_bound1_series_is_probability_series(self):
        series = genfunc.bound1_dominating_series(0.3, 0.4, 800)
        assert series.min() >= 0.0
        assert series.sum() == pytest.approx(1.0, abs=1e-3)

    def test_bound1_leading_coefficient(self):
        """ĉ₁ = q_h ε / q — the first slot is an immediate success."""
        epsilon, q_unique = 0.3, 0.4
        _, q = bias_probabilities(epsilon)
        series = genfunc.bound1_dominating_series(epsilon, q_unique, 16)
        assert series[1] == pytest.approx(q_unique * epsilon / q, rel=1e-12)

    def test_bound2_series_is_probability_series(self):
        series = genfunc.bound2_dominating_series(0.3, 800)
        assert series.min() >= 0.0
        assert series.sum() == pytest.approx(1.0, abs=1e-3)

    def test_bound2_leading_coefficients(self):
        """m̂₁ = εq (hand-computed); m̂₂ = 0; m̂₃ = εd₃ (the erratum check)."""
        epsilon = 0.3
        p, q = bias_probabilities(epsilon)
        series = genfunc.bound2_dominating_series(epsilon, 16)
        descent = genfunc.descent_series(epsilon, 16)
        assert series[1] == pytest.approx(epsilon * q, rel=1e-12)
        assert series[2] == pytest.approx(0.0, abs=1e-15)
        assert series[3] == pytest.approx(epsilon * descent[3], rel=1e-12)

    def test_prefix_correction_is_probability_series(self):
        series = genfunc.stationary_prefix_correction(0.3, 800)
        assert series.min() >= 0.0
        assert series.sum() == pytest.approx(1.0, abs=1e-6)


class TestRadii:
    def test_r1_formula_asymptotics(self):
        """R₁ = 1 + ε³/2 + O(ε⁴) (Eq. (5))."""
        for epsilon in (0.05, 0.1, 0.2):
            r1 = genfunc.radius_bound_r1(epsilon)
            assert r1 == pytest.approx(1 + epsilon**3 / 2, abs=epsilon**4 * 4)

    def test_r2_below_r1_when_unique_mass_is_small(self):
        """With q_h small the denominator F reaches 1 inside the disc.

        (For moderate q_h — e.g. 0.1 at ε = 0.3 — F stays below 1 on the
        whole convergence interval and R = R₁ binds instead; both regimes
        are exercised.)
        """
        epsilon = 0.3
        r1 = genfunc.radius_bound_r1(epsilon)
        r2_small = genfunc.radius_bound_r2(epsilon, q_unique=0.02)
        assert 1.0 < r2_small < r1
        r2_moderate = genfunc.radius_bound_r2(epsilon, q_unique=0.1)
        assert r2_moderate == pytest.approx(r1)

    def test_r2_equals_r1_when_all_honest_unique(self):
        """q_H = 0: F(z) < 1 on the whole interval (the paper's special case)."""
        epsilon = 0.3
        _, q = bias_probabilities(epsilon)
        r2 = genfunc.radius_bound_r2(epsilon, q_unique=q)
        assert r2 == pytest.approx(genfunc.radius_bound_r1(epsilon))

    def test_decay_rate_shape(self):
        """rate ≈ Θ(min(ε³, ε²q_h)): ordering across parameter ranges."""
        # fixed epsilon, shrinking q_h: rate decreases
        rates = [
            genfunc.bound1_decay_rate(0.3, q_unique)
            for q_unique in (0.6, 0.3, 0.1, 0.02)
        ]
        assert rates == sorted(rates, reverse=True)
        # rate is positive whenever q_h > 0
        assert rates[-1] > 0

    def test_bound2_decay_rate_epsilon_cubed(self):
        for epsilon in (0.1, 0.2):
            rate = genfunc.bound2_decay_rate(epsilon)
            assert rate == pytest.approx(epsilon**3 / 2, rel=0.4)

    def test_series_tail_decays_at_radius_rate(self):
        """Coefficient tails of Ĉ decay like R^{-k} (Theorem 2.19 of [12])."""
        epsilon, q_unique = 0.4, 0.3
        series = genfunc.bound1_dominating_series(epsilon, q_unique, 3000)
        rate = genfunc.bound1_decay_rate(epsilon, q_unique)
        t1 = series[400:].sum()
        t2 = series[800:].sum()
        observed_rate = -(math.log(t2) - math.log(t1)) / 400
        assert observed_rate == pytest.approx(rate, rel=0.15)
