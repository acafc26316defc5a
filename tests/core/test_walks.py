"""Biased walks and the X_∞ barrier law (Section 5, Eq. (9))."""

import itertools
import math

import numpy as np
import pytest

from repro.analysis.genfunc import descent_series
from repro.core.alphabet import prefix_sums
from repro.core.walks import (
    bias_probabilities,
    sample_descent_time,
    sample_reflected_walk_height,
    stationary_reach_ratio,
)
from repro.core.reach import reach_sequence

from tests.core.references import reflected_walk


def reflected_walk_law(epsilon: float, steps: int) -> np.ndarray:
    """Exact law of ``X_steps`` of the reflected ε-biased walk from 0."""
    p, q = bias_probabilities(epsilon)
    law = np.zeros(steps + 1)
    law[0] = 1.0
    for _ in range(steps):
        after = np.zeros_like(law)
        after[1:] = p * law[:-1]
        after[:-1] += q * law[1:]
        after[0] += q * law[0]
        law = after
    return law


def first_passage_mass(epsilon: float, level: int, steps: int) -> list[float]:
    """``Pr[first t with S_t = level]`` for t ≤ steps, by enumerating words.

    Each word over {A, h} of length ``steps`` has probability
    ``p^#A q^#h``; its first passage time is read off ``prefix_sums``.
    """
    p, q = bias_probabilities(epsilon)
    mass = [0.0] * (steps + 1)
    for symbols in itertools.product("Ah", repeat=steps):
        word = "".join(symbols)
        weight = p ** word.count("A") * q ** word.count("h")
        path = prefix_sums(word)
        hit = next((t for t in range(1, steps + 1) if path[t] == level), None)
        if hit is not None:
            mass[hit] += weight
    return mass


class TestBias:
    def test_bias_probabilities(self):
        p, q = bias_probabilities(0.2)
        assert math.isclose(p, 0.4) and math.isclose(q, 0.6)
        assert math.isclose(q - p, 0.2)

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            bias_probabilities(0.0)
        with pytest.raises(ValueError):
            bias_probabilities(1.0)

    def test_ruin_probability(self):
        """A walk at 0 ever climbs to +1 with probability p/q = β."""
        p, q = bias_probabilities(0.2)
        assert math.isclose(p / q, 0.4 / 0.6)
        for epsilon in (0.05, 0.2, 0.5, 0.9):
            p, q = bias_probabilities(epsilon)
            assert math.isclose(p / q, stationary_reach_ratio(epsilon))


class TestStationaryLaw:
    def test_ratio(self):
        assert math.isclose(stationary_reach_ratio(0.2), 0.8 / 1.2)

    def test_pmf_is_geometric(self):
        """``(1 − β)β^k`` solves the reflected walk's balance equations."""
        for epsilon in (0.1, 0.3, 0.7):
            p, q = bias_probabilities(epsilon)
            beta = stationary_reach_ratio(epsilon)
            pmf = [(1 - beta) * beta**k for k in range(12)]
            assert math.isclose(pmf[0], q * (pmf[0] + pmf[1]))
            for k in range(1, 11):
                assert math.isclose(pmf[k], p * pmf[k - 1] + q * pmf[k + 1])

    def test_pmf_plus_tail_sums_to_one(self):
        """The exact law of X_1000 is X_∞'s: pmf below 41 plus β^41 is 1."""
        epsilon = 0.25
        beta = stationary_reach_ratio(epsilon)
        law = reflected_walk_law(epsilon, 1000)
        assert math.isclose(sum(law), 1.0)
        for k in range(41):
            assert math.isclose(law[k], (1 - beta) * beta**k, rel_tol=1e-9)
        assert math.isclose(sum(law[:41]) + beta**41, 1.0)
        # X_m ⪯ X_∞ holds exactly at every threshold, not only for m → ∞.
        short = reflected_walk_law(epsilon, 30)
        for threshold in range(len(short)):
            assert sum(short[threshold:]) <= beta**threshold + 1e-12

    def test_reflected_walk_converges_to_stationary_law(self, rng):
        """Empirical X_t distribution approaches X_∞ (Eq. (9))."""
        epsilon = 0.4
        beta = stationary_reach_ratio(epsilon)
        samples = [
            sample_reflected_walk_height(epsilon, 200, rng)
            for _ in range(4000)
        ]
        for k in (0, 1, 2):
            expected = (1 - beta) * beta**k
            observed = sum(1 for s in samples if s == k) / len(samples)
            assert abs(observed - expected) < 0.03

    def test_stationary_law_dominates_finite_time(self, rng):
        """X_m ⪯ X_∞ ([4, Lemma 6.1]): finite-time tails are smaller."""
        epsilon = 0.3
        samples = [
            sample_reflected_walk_height(epsilon, 30, rng) for _ in range(4000)
        ]
        for threshold in (1, 2, 4):
            empirical_tail = sum(1 for s in samples if s >= threshold) / len(
                samples
            )
            assert empirical_tail <= (
                stationary_reach_ratio(epsilon) ** threshold + 0.02
            )


class TestPathHelpers:
    def test_walk_path(self):
        """S_t steps +1 on A, −1 on h and H, and holds still on ⊥."""
        assert prefix_sums("AhH.") == [0, 1, 0, -1, -1]

    def test_reflected_walk_is_nonnegative(self):
        heights = reflected_walk("AAhhhhA")
        assert all(h >= 0 for h in heights)

    def test_reflected_walk_equals_reach_recurrence(self):
        """X_t of the walk equals ρ(prefix) — the Theorem 5 connection."""
        for word in ("hAhA", "AAAh", "HhAAHh", "hhhhAA"):
            assert reflected_walk(word) == reach_sequence(word)

    def test_descent_time(self):
        """D(Z)'s coefficients are the first-descent law of the walk."""
        for epsilon in (0.2, 0.6):
            enumerated = first_passage_mass(epsilon, -1, 9)
            series = descent_series(epsilon, 9)
            for t in range(10):
                assert math.isclose(enumerated[t], series[t], abs_tol=1e-15)

    def test_ascent_time(self):
        """The first-ascent law is (p/q) times the first-descent law."""
        for epsilon in (0.2, 0.6):
            p, q = bias_probabilities(epsilon)
            enumerated = first_passage_mass(epsilon, 1, 9)
            series = descent_series(epsilon, 9)
            for t in range(10):
                assert math.isclose(
                    enumerated[t], p / q * series[t], abs_tol=1e-15
                )


class TestSampledStoppingTimes:
    def test_descent_time_mean(self, rng):
        """E[first descent] = 1/ε."""
        epsilon = 0.5
        samples = [sample_descent_time(epsilon, rng) for _ in range(4000)]
        assert all(s is not None for s in samples)
        mean = sum(samples) / len(samples)
        assert abs(mean - 1 / epsilon) < 0.15
