"""Numerical versions of the paper's error bounds (Bounds 1–3, Theorems 1–2, 7–8).

Each bound is exposed in two strengths:

* an *asymptotic rate* — the exact exponential decay rate promised by the
  theorem (from the generating functions' radii of convergence); and
* a *computable tail* — the concrete probability bound obtained by
  summing the dominating series' coefficients, which is what the paper's
  dominance arguments actually license (``Pr[...] ≤ Σ_{t ≥ k} ĉ_t``).

The computable tails are used by the benchmark suite to compare theory
against the exact DP of :mod:`repro.analysis.exact` and against Monte
Carlo; the rates are used for the min(ε³, ε²p_h) shape checks.
"""

from __future__ import annotations

import math

from repro.analysis import genfunc
from repro.core.walks import bias_probabilities


def bound1_tail(
    epsilon: float,
    q_unique: float,
    k: int,
    with_prefix: bool = True,
    order: int | None = None,
) -> float:
    """Bound 1: ``Pr[no uniquely honest Catalan slot in a k-window]``.

    Upper bound via the dominating series ``Ĉ(Z)`` (and, with
    ``with_prefix``, the ``X_∞(D(Z))`` correction for windows preceded by
    an arbitrarily long history).  The tail is computed as ``1 − head``
    of the probability generating function, so only ``k`` coefficients
    are needed and no far-tail mass is lost.
    """
    if k < 0:
        raise ValueError("window length k must be non-negative")
    if q_unique <= 0:
        return 1.0
    order = order if order is not None else k + 320
    series = genfunc.bound1_dominating_series(epsilon, q_unique, order)
    if with_prefix:
        correction = genfunc.stationary_prefix_correction(epsilon, order)
        series = genfunc.series_multiply(correction, series, order)
    return genfunc.probability_tail(series, k)


def bound2_tail(
    epsilon: float,
    k: int,
    with_prefix: bool = True,
    order: int | None = None,
) -> float:
    """Bound 2: ``Pr[no two consecutive Catalan slots in a k-window]``.

    Applies to bivalent strings (``p_h = 0``) under the consistent
    tie-breaking axiom A0′; via the dominating series ``M̂(Z)``.
    """
    if k < 0:
        raise ValueError("window length k must be non-negative")
    order = order if order is not None else k + 320
    series = genfunc.bound2_dominating_series(epsilon, order)
    if with_prefix:
        correction = genfunc.stationary_prefix_correction(epsilon, order)
        series = genfunc.series_multiply(correction, series, order)
    return genfunc.probability_tail(series, k)


def theorem1_settlement_bound(epsilon: float, p_unique: float, k: int) -> float:
    """Theorem 1: ``S^{s,k}[B] ≤ exp(−k·Ω(min(ε³, ε²p_h)))``, computably.

    The settlement insecurity is bounded by the probability that the
    k-window ``[s, s + k − 1]`` contains no uniquely honest Catalan slot
    (Theorem 3 + Eq. (1)), i.e. by Bound 1 with prefix correction.
    """
    return bound1_tail(epsilon, p_unique, k)


def theorem2_settlement_bound(epsilon: float, k: int) -> float:
    """Theorem 2 (axiom A0′, bivalent strings): via Bound 2."""
    return bound2_tail(epsilon, k)


def theorem1_asymptotic_rate(epsilon: float, p_unique: float) -> float:
    """The exact decay rate ``ln R`` behind ``Ω(min(ε³, ε²p_h))``."""
    return genfunc.bound1_decay_rate(epsilon, p_unique)


def nominal_rate_shape(epsilon: float, p_unique: float) -> float:
    """The paper's headline shape ``min(ε³, ε² p_h)`` (up to constants).

    Used by tests to confirm the true rates scale like the headline:
    for small ε with p_h = Θ(1), rate = Θ(ε³); for small p_h, Θ(ε²p_h).
    """
    return min(epsilon**3, epsilon**2 * p_unique)


def theorem8_cp_bound(
    total_length: int, epsilon: float, p_unique: float, k: int
) -> float:
    """Theorem 8: ``Pr[w violates k-CP^slot] ≤ T · Bound1-tail``.

    The union bound over window start positions; with axiom A0′ and
    ``p_unique = 0`` use :func:`theorem8_cp_bound_consistent`.
    """
    return min(total_length * bound1_tail(epsilon, p_unique, k), 1.0)


def theorem8_cp_bound_consistent(total_length: int, epsilon: float, k: int) -> float:
    """Theorem 8, second claim (bivalent strings, axiom A0′)."""
    return min(total_length * bound2_tail(epsilon, k), 1.0)


# ----------------------------------------------------------------------
# Bound 3 and Theorem 7 (Δ-synchrony)
# ----------------------------------------------------------------------


def bound3_level_probability(epsilon: float, k: int, level: int) -> float:
    """``f_j(k) = Pr[S_{c+k} = S_c − j]`` for the ε-biased walk.

    Exact binomial expression from the proof of Bound 3; zero when the
    parities of ``k`` and ``j`` differ.  Evaluated in log space — the
    binomial coefficient overflows a float already around k ≈ 1030.
    """
    if level < 0 or level > k:
        return 0.0
    if (k - level) % 2:
        return 0.0
    p, q = bias_probabilities(epsilon)
    down = (k + level) // 2
    log_value = (
        math.lgamma(k + 1)
        - math.lgamma(down + 1)
        - math.lgamma(k - down + 1)
        + (k - down) * math.log(p)
        + down * math.log(q)
    )
    if log_value < -745.0:  # below float64 underflow
        return 0.0
    return math.exp(log_value)


def bound3_return_mass(epsilon: float, k: int, delta: int) -> float:
    """``f(Δ, k) = Σ_{j ≤ Δ} f_j(k)`` — walk within Δ of its level at c."""
    return sum(bound3_level_probability(epsilon, k, j) for j in range(delta + 1))


def bound3_tail(epsilon: float, k: int, delta: int, horizon: int | None = None) -> float:
    """Bound 3: ``Pr[B_Δ | G] ≤ Σ_{t ≥ k} f(Δ, t)``.

    The probability that the walk ever returns to within Δ of the Catalan
    slot's level after k further slots.  The series decays geometrically
    at rate ``(1 − ε²)^{1/2}`` per step; ``horizon`` truncates the sum and
    the geometric remainder is added conservatively.
    """
    horizon = horizon if horizon is not None else 4 * k + 200
    total = 0.0
    for t in range(k, horizon + 1):
        total += bound3_return_mass(epsilon, t, delta)
    # Geometric remainder: f(Δ, t) ≤ f(Δ, horizon) r^{t − horizon} with
    # r = sqrt(1 − ε²) < 1 for the dominant term.
    ratio = math.sqrt(1.0 - epsilon * epsilon)
    last = bound3_return_mass(epsilon, horizon, delta)
    total += last * ratio / (1.0 - ratio)
    return min(total, 1.0)


def theorem7_condition(
    p_adversarial: float, activity: float, delta: int
) -> float:
    """Left side of Eq. (20): ``p_A β/f + (1 − β)`` with ``β = (1 − f)^Δ``.

    Theorem 7 requires this to be ≤ (1 − ε)/2; the returned value *is*
    the reduced adversarial probability after the ρ_Δ map, so the caller
    reads off the achievable ε directly (ε = 1 − 2·value).
    """
    if not 0 < activity <= 1:
        raise ValueError("activity f must lie in (0, 1]")
    beta = (1.0 - activity) ** delta
    return p_adversarial * beta / activity + (1.0 - beta)


def theorem7_settlement_bound(
    activity: float,
    p_adversarial: float,
    p_unique: float,
    delta: int,
    k: int,
) -> float:
    """Theorem 7: (k, Δ)-settlement failure bound in the Δ-synchronous model.

    Combines Bound 1 on the reduced string (whose parameters come from
    Proposition 4: ``p'_σ = p_σ β/f`` for honest σ) with Bound 3's walk
    escape term, per the decomposition ``Pr[A] ≤ Pr[¬G1] + Pr[¬G2 | G1]``
    of Section 8.3.
    """
    reduced_adversarial = theorem7_condition(p_adversarial, activity, delta)
    epsilon = 1.0 - 2.0 * reduced_adversarial
    if epsilon <= 0:
        return 1.0
    beta = (1.0 - activity) ** delta
    reduced_unique = p_unique * beta / activity
    catalan_term = bound1_tail(epsilon, reduced_unique, k)
    escape_term = bound3_tail(epsilon, k, delta)
    return min(catalan_term + escape_term, 1.0)
