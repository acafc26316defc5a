"""Metamorphic properties of the exact DP at off-grid points.

``test_monotonicity.py`` checks the monotonicity the oracle's
conservative snapping relies on at the Table 1 grid points; here
hypothesis draws the coordinates from continuous ranges, so the
properties are checked between grid points too:

* the violation probability is monotone in α, the uniquely honest
  fraction p_h/(1−α), the delay Δ (through the Proposition 4 reduction
  the oracle tabulates with) and the depth k;
* the Theorem 1 bound dominates the DP at its own law, and the
  Theorem 2 bound dominates it at the law whose honest slots are all
  uniquely honest (the A0′ violation probability of a bivalent string,
  which Theorem 2 bounds, is at least that);
* a settlement-oracle answer dominates the DP at the queried point.

Comparisons allow the one-ulp slack of ``test_monotonicity.at_most``.

The examples come from the derandomized ``repro-ci`` profile of
``tests/conftest.py``: the same points on every run and machine.
"""

import math

import pytest
from hypothesis import example, given, strategies as st

from repro.analysis.bounds import (
    theorem1_settlement_bound,
    theorem2_settlement_bound,
)
from repro.analysis.exact import (
    compute_settlement_probabilities,
    settlement_violation_probability,
)
from repro.core.distributions import (
    bernoulli_condition,
    from_adversarial_stake,
)
from repro.oracle.service import SettlementOracle
from repro.oracle.tables import (
    OracleSpec,
    build_tables,
    effective_probabilities,
)

alphas = st.floats(0.01, 0.45)
fractions = st.floats(0.0, 1.0)
depths = st.integers(1, 150)

#: A small oracle over an activity-thinned law, so its Δ axis is live.
SPEC = OracleSpec(
    alphas=(0.1, 0.2, 0.3),
    unique_fractions=(0.5, 1.0),
    deltas=(0, 2),
    depths=(5, 10, 20),
    targets=(1e-1, 1e-2, 1e-3),
    activity=0.05,
)


def at_most(smaller: float, larger: float) -> bool:
    """``smaller ≤ larger`` up to the DP's last-digit rounding (see
    ``test_monotonicity.at_most``)."""
    return smaller <= larger or math.isclose(
        smaller, larger, rel_tol=1e-12, abs_tol=0.0
    )


def dp(alpha: float, fraction: float, depth: int) -> float:
    return settlement_violation_probability(
        from_adversarial_stake(alpha, fraction), depth
    )


@given(alphas, alphas, fractions, depths)
def test_non_decreasing_in_alpha(a, b, fraction, depth):
    weaker, stronger = sorted((a, b))
    assert at_most(dp(weaker, fraction, depth), dp(stronger, fraction, depth))


@given(alphas, fractions, fractions, depths)
def test_non_increasing_in_unique_fraction(alpha, a, b, depth):
    poorer, richer = sorted((a, b))
    assert at_most(dp(alpha, richer, depth), dp(alpha, poorer, depth))


@given(
    st.floats(0.01, 0.3),
    fractions,
    st.floats(0.005, 0.05),
    st.integers(0, 4),
    depths,
)
def test_non_decreasing_in_delta(alpha, fraction, activity, delta, depth):
    faster, slower = (
        settlement_violation_probability(
            effective_probabilities(alpha, fraction, d, activity), depth
        )
        for d in (delta, delta + 1)
    )
    assert at_most(faster, slower)


@given(alphas, fractions)
def test_non_increasing_in_depth(alpha, fraction):
    ks = list(range(1, 151))
    sweep = compute_settlement_probabilities(
        from_adversarial_stake(alpha, fraction), ks
    )
    for shallow, deep in zip(ks, ks[1:]):
        assert at_most(sweep[deep], sweep[shallow])


@given(st.floats(0.15, 0.7), st.floats(0.02, 1.0), st.integers(1, 100))
def test_theorem1_bound_dominates_dp(epsilon, share, depth):
    p_unique = share * (1 + epsilon) / 2
    exact = settlement_violation_probability(
        bernoulli_condition(epsilon, p_unique), depth
    )
    assert theorem1_settlement_bound(epsilon, p_unique, depth) >= exact


@given(st.floats(0.15, 0.7), st.integers(1, 100))
def test_theorem2_bound_dominates_dp(epsilon, depth):
    every_honest_slot_unique = bernoulli_condition(epsilon, (1 + epsilon) / 2)
    exact = settlement_violation_probability(every_honest_slot_unique, depth)
    assert theorem2_settlement_bound(epsilon, depth) >= exact


@pytest.fixture(scope="module")
def oracle():
    return SettlementOracle(build_tables(SPEC).tables)


@given(
    alpha=st.floats(0.1, 0.3),
    fraction=st.floats(0.5, 1.0),
    delta=st.integers(0, 2),
    depth=st.integers(5, 60),
)
# On the grid, the stored cell reads 0.05023999999999981 and a per-k DP
# 0.050239999999999826: the answer is one ulp below the DP.
@example(alpha=0.1, fraction=1.0, delta=0, depth=5)
def test_oracle_answer_dominates_dp(oracle, alpha, fraction, delta, depth):
    exact = settlement_violation_probability(
        effective_probabilities(alpha, fraction, delta, SPEC.activity), depth
    )
    answer = oracle.violation_probability(alpha, fraction, delta, depth)
    # A cell is read off one DP sweep to the table's horizon, which can
    # round the last digit differently from a sweep that stops at k.
    assert at_most(exact, answer)
