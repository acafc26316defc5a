"""Monte-Carlo estimation through the engine: calibration and cross-checks.

The settlement estimates run through ``run_scenario`` and are checked
against the exact DP; the X_∞ initial-reach law is checked through
``run_scenario`` and on its scalar rejection-loop reference.
The scalar estimator over an arbitrary string sampler lives here,
beside the only tests that use it.  The martingale law's Theorem 1
dominance is checked here on decoded rows of the batched kernel, and
through the engine's ``martingale-damped`` scenario in
``tests/engine/test_runner.py``.
"""

import random

import numpy as np

from repro.analysis.exact import settlement_violation_probability
from repro.core.distributions import (
    bernoulli_condition,
    sample_characteristic_string,
)
from repro.core.margin import relative_margin
from repro.core.walks import stationary_reach_ratio
from repro.engine import Estimate, estimate_from_hits, run_scenario
from repro.engine.kernels import SYMBOLS, sample_martingale_matrix

SEED = 0xC0FFEE


def sample_initial_reach(epsilon: float, rng: random.Random) -> int:
    """Draw from the X_∞ law of Eq. (9) (geometric with ratio β).

    Scalar rejection-loop sampler, kept as the distributional oracle for
    :func:`repro.engine.kernels.sample_initial_reaches`.
    """
    beta = stationary_reach_ratio(epsilon)
    reach = 0
    while rng.random() < beta:
        reach += 1
    return reach


def estimate_violation_from_sampler(
    sampler,
    target_slot: int,
    depth: int,
    trials: int,
) -> Estimate:
    """Violation rate for strings drawn from an arbitrary sampler.

    ``sampler()`` must return a characteristic string of length at least
    ``target_slot + depth − 1``.  Scalar by design — the sampler is an
    opaque callable; batched martingale workloads go through the
    engine's ``martingale-damped`` scenario instead.
    """
    hits = 0
    for _ in range(trials):
        word = sampler()
        needed = target_slot + depth - 1
        if len(word) < needed:
            raise ValueError("sampler returned a string that is too short")
        if relative_margin(word[:needed], target_slot - 1) >= 0:
            hits += 1
    return estimate_from_hits(hits, trials)


class TestEstimate:
    def test_within(self):
        estimate = Estimate(0.5, 0.01, 1000)
        assert estimate.within(0.52, sigmas=4)
        assert not estimate.within(0.60, sigmas=4)


class TestInitialReach:
    def test_matches_geometric_law(self, rng):
        epsilon = 0.3
        beta = stationary_reach_ratio(epsilon)
        scalar = [sample_initial_reach(epsilon, rng) for _ in range(8000)]
        for k in (0, 1, 3):
            expected = (1 - beta) * beta**k
            observed = sum(1 for s in scalar if s == k) / len(scalar)
            assert abs(observed - expected) < 0.02
            batched = run_scenario(
                "iid-settlement",
                8000,
                SEED,
                estimator=lambda scenario, batch: batch.initial_reaches == k,
                probabilities=bernoulli_condition(epsilon, 0.3),
                depth=1,
            )
            assert abs(batched.value - expected) < 0.02


class TestSettlementEstimator:
    def test_agrees_with_exact_dp(self):
        probs = bernoulli_condition(0.4, 0.3)
        estimate = run_scenario(
            "iid-settlement", 4000, SEED, probabilities=probs, depth=20
        )
        exact = settlement_violation_probability(probs, 20)
        assert estimate.within(exact, sigmas=4)

    def test_finite_prefix_variant(self):
        probs = bernoulli_condition(0.4, 0.3)
        estimate = run_scenario(
            "iid-finite-prefix",
            3000,
            SEED,
            probabilities=probs,
            depth=15,
            prefix_model=10,
        )
        exact = settlement_violation_probability(probs, 15, prefix_length=10)
        assert estimate.within(exact, sigmas=4)


class TestSamplerBridge:
    def test_iid_sampler_matches_exact_zero_prefix(self, rng):
        probs = bernoulli_condition(0.3, 0.4)
        slot, depth = 1, 18

        estimate = estimate_violation_from_sampler(
            lambda: sample_characteristic_string(probs, slot + depth, rng),
            slot,
            depth,
            3000,
        )
        exact = settlement_violation_probability(
            probs, depth, prefix_length=slot - 1
        )
        assert estimate.within(exact, sigmas=4)

    def test_martingale_sampler_is_dominated(self, rng):
        """Theorem 1's dominance: damped strings ≤ i.i.d. probability.

        The damped strings are rows of the batched martingale kernel,
        decoded and scored one at a time by the scalar estimator.
        """
        probs = bernoulli_condition(0.2, 0.3)
        slot, depth, trials = 6, 15, 4000
        length = slot + depth

        codes = sample_martingale_matrix(
            probs, trials, length, np.random.default_rng(SEED), 0.2
        )
        rows = iter(["".join(SYMBOLS[c] for c in row) for row in codes])
        damped = estimate_violation_from_sampler(
            lambda: next(rows), slot, depth, trials
        )
        iid = estimate_violation_from_sampler(
            lambda: sample_characteristic_string(probs, length, rng),
            slot,
            depth,
            trials,
        )
        assert damped.value <= iid.value + 4 * (
            damped.standard_error + iid.standard_error
        )
