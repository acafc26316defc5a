"""Truncated power-series engine for the Section 5 generating functions.

The proofs of Bounds 1 and 2 manipulate ordinary generating functions of
biased-walk stopping times:

* ``D(Z) = (1 − sqrt(1 − 4pqZ²)) / (2pZ)`` — first *descent* of the
  ε-biased walk (a probability generating function, ``D(1) = 1``);
* ``A(Z) = (1 − sqrt(1 − 4pqZ²)) / (2qZ)`` — first *ascent*
  (defective: ``A(1) = p/q`` by gambler's ruin);
* compositions such as ``A(Z · D(Z))`` ("ascend, then descend as many
  levels as the ascent took steps"), the dominating series ``Ĉ(Z)`` of
  Bound 1 and ``M̂(Z)`` of Bound 2, and the prefix correction
  ``X_∞(D(Z))``.

Series are represented as numpy coefficient arrays ``c[0..N]`` truncated
at a caller-chosen order.  Closed-form coefficients are used where the
paper provides them (Catalan numbers for ``D`` and ``A``); the
composition ``A(Z · D(Z))`` is solved from its algebraic functional
equation and rational forms from the reciprocal-series recurrence, both
by doubling the number of known coefficients per step (a few
convolutions each, no subtractions), so the coefficient arrays are the
true series coefficients up to the truncation order (to float64
rounding) — which is what turns the paper's dominance arguments into
computable tail bounds.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.walks import bias_probabilities, stationary_reach_ratio


def series_multiply(left: np.ndarray, right: np.ndarray, order: int) -> np.ndarray:
    """Product of two truncated series, truncated/padded to ``order + 1`` terms."""
    product = np.convolve(left[: order + 1], right[: order + 1])[: order + 1]
    if len(product) < order + 1:
        product = np.pad(product, (0, order + 1 - len(product)))
    return product


def series_inverse_one_minus(series: np.ndarray, order: int) -> np.ndarray:
    """``1 / (1 − series)`` truncated to ``order`` terms.

    Requires ``series[0] == 0``.  The reciprocal ``r = 1 + f·r`` is
    extended by doubling: once ``r[:n]`` is known, the next block
    ``r[n:2n]`` is the part ``owed`` of ``f·r`` that the known
    coefficients already determine, times ``1/(1 − f)`` — whose first
    ``n`` terms are ``r[:n]`` itself.  Each step is two convolutions,
    and for non-negative ``f`` every coefficient is a sum of
    non-negative products, so no subtraction can cancel digits.
    """
    if abs(series[0]) > 0:
        raise ValueError("1/(1 - f) expansion requires f[0] == 0")
    f = np.zeros(order + 1)
    f[: min(len(series), order + 1)] = series[: order + 1]
    result = np.zeros(order + 1)
    result[0] = 1.0
    n = 1
    while n <= order:
        block = min(n, order + 1 - n)
        owed = np.convolve(f[1 : n + block], result[:n])[n - 1 : n + block - 1]
        result[n : n + block] = np.convolve(result[:block], owed)[:block]
        n += block
    return result


def descent_series(epsilon: float, order: int) -> np.ndarray:
    """Coefficients of ``D(Z)`` up to ``order``.

    ``D`` has only odd-power terms: ``d_{2i+1} = C_i p^i q^{i+1}`` — the
    walk must take ``2i + 1`` steps (i up, i + 1 down) with ballot-style
    ordering counted by the Catalan number.  Computed by the ratio
    recurrence ``C_{i+1}/C_i = 2(2i + 1)/(i + 2)`` entirely in floats
    (the Catalan numbers themselves overflow float64 near i ≈ 500, while
    the coefficients ``C_i (pq)^i`` stay bounded).
    """
    p, q = bias_probabilities(epsilon)
    series = np.zeros(order + 1)
    terms = (order + 1) // 2  # d_1, d_3, … up to Z^order
    i = np.arange(terms - 1)
    factors = np.concatenate(([q], 2.0 * (2 * i + 1) / (i + 2) * p * q))
    series[1::2] = np.multiply.accumulate(factors[:terms])
    return series


def z_times(series: np.ndarray, order: int) -> np.ndarray:
    """Multiply a series by ``Z`` (shift coefficients up by one)."""
    shifted = np.zeros(order + 1)
    shifted[1:] = series[:order]
    return shifted


def ascent_of_z_descent(epsilon: float, order: int) -> np.ndarray:
    """``A(Z · D(Z))`` — ascend, then descend that many levels (Section 5.1).

    The ascent series solves ``A = pZ + qZ·A²`` (first ascent: step up,
    or step down and ascend twice), so ``B = A(X)`` with ``X = Z·D(Z)``
    solves ``B = pX + qX·B²``.  ``B`` is extended by doubling: once
    ``L = B[:n]`` is known, a coefficient ``b_m`` with ``m < 2n`` needs
    ``B²`` only below ``2n − 2``, where a product ``b_j b_{k−j}`` has at
    most one factor in the unknown block ``H = B[n:2n]``.  So the block
    solves the *linear* equation

        ``H = driven + 2q·g·H``,  ``driven = pX + qX·L²``,  ``g = X·L``

    (read off at ``Z^n..Z^{2n−1}``), i.e. ``H = driven / (1 − 2q·g)``
    with the reciprocal from :func:`series_inverse_one_minus`: a few
    convolutions per doubling step, against O(order³) for Horner
    composition.  Every term is non-negative, so no subtraction can
    cancel digits.
    """
    p, q = bias_probabilities(epsilon)
    inner = z_times(descent_series(epsilon, order), order)
    composed = np.zeros(order + 1)
    n = 1
    while n <= order:
        block = min(n, order + 1 - n)
        known = composed[:n]
        top = n + block
        squared = np.convolve(known, known)[:top]
        driven = (
            p * inner[n:top]
            + q * np.convolve(inner[:top], squared)[n:top]
        )
        coupling = 2.0 * q * np.convolve(inner[:block], known[:block])[:block]
        composed[n:top] = np.convolve(
            driven, series_inverse_one_minus(coupling, block - 1)
        )[:block]
        n = top
    return composed


def bound1_dominating_series(
    epsilon: float, q_unique: float, order: int
) -> np.ndarray:
    """``Ĉ(Z)`` of Eq. (3): dominates the first-uniquely-honest-Catalan time.

    ``Ĉ(Z) = (q_h ε / q) Z / (1 − F(Z))`` with
    ``F(Z) = pZD(Z) + q_h Z A(ZD(Z)) + q_H Z``.
    A probability generating function: coefficients are non-negative and
    sum to 1 (checked in tests).
    """
    p, q = bias_probabilities(epsilon)
    if not 0 <= q_unique <= q + 1e-12:
        raise ValueError(f"q_h = {q_unique} outside [0, q = {q}]")
    q_multi = q - q_unique

    descent = descent_series(epsilon, order)
    f_series = (
        p * z_times(descent, order)
        + q_unique * z_times(ascent_of_z_descent(epsilon, order), order)
    )
    f_series[1] += q_multi  # the q_H · Z term
    geometric = series_inverse_one_minus(f_series, order)
    lead = np.zeros(order + 1)
    lead[1] = q_unique * epsilon / q
    return series_multiply(lead, geometric, order)


def bound2_dominating_series(epsilon: float, order: int) -> np.ndarray:
    """``M̂(Z)`` of Section 5.2: dominates the first consecutive-Catalan pair.

    The renewal structure of the search is (Section 5.2)

        ``M(Z) = D(Z) · {ε + (1 − ε) E(Z) M(Z)}``,

    which solves to ``M = εD / (1 − (1 − ε) · D · E)``.  (The paper's
    Eq. (10) prints ``εD/(1 − (1 − ε)E)``, dropping the leading ``D`` of
    the recursive branch — an algebra slip: with it, the series fails to
    dominate the true first-pair time already at t = 3, where the true
    coefficient is ``ε·d₃``.  The corrected form is used here and verified
    against Monte Carlo in the tests.)  The epoch surrogate is
    ``Ê(Z) = pZD(Z) + qZ A(ZD(Z)) / A(1) ⪰ E``.
    """
    p, q = bias_probabilities(epsilon)
    descent = descent_series(epsilon, order)
    ascent_composed = ascent_of_z_descent(epsilon, order)
    epoch = p * z_times(descent, order) + (q / (p / q)) * z_times(
        ascent_composed, order
    )
    recursive_branch = (1.0 - epsilon) * series_multiply(descent, epoch, order)
    geometric = series_inverse_one_minus(recursive_branch, order)
    return epsilon * series_multiply(descent, geometric, order)


def stationary_prefix_correction(epsilon: float, order: int) -> np.ndarray:
    """``X_∞(D(Z)) = (1 − β) / (1 − β D(Z))`` (the |x| ≥ 1 case).

    Composing the geometric initial-reach law with descent times converts
    a "start at the running minimum" bound into a "start anywhere after a
    long prefix" bound.
    """
    beta = stationary_reach_ratio(epsilon)
    descent = descent_series(epsilon, order)
    geometric = series_inverse_one_minus(beta * descent, order)
    return (1.0 - beta) * geometric


def probability_tail(series: np.ndarray, k: int) -> float:
    """``Pr[T ≥ k]`` for a PGF's coefficient series, in every regime.

    The dominating series Ĉ, M̂ and their prefix-corrected versions are
    probability generating functions by construction (their defining
    renewal equations conserve mass), so ``1 − Σ_{t<k} c_t`` is the exact
    tail — but in float64 it floors out near machine epsilon (≈ 2e−16).
    The direct partial sum ``Σ_{t ≥ k} c_t`` over the truncated series is
    instead accurate for fast-decaying (tiny) tails but under-counts
    slow-decaying ones.  Both are ≤ the true tail, so their maximum is
    the best available estimate and correct in both regimes; callers
    supply a truncation order of ``k`` plus a few decay lengths.
    """
    if k <= 0:
        return 1.0
    head = float(series[: min(k, len(series))].sum())
    complement = min(max(1.0 - head, 0.0), 1.0)
    partial = float(series[k:].sum()) if k < len(series) else 0.0
    if complement > 1e-12:
        # Large/slow-decay regime: 1 − head is exact and the truncated
        # partial sum may under-count; the complement dominates anyway.
        return min(max(complement, partial), 1.0)
    # Tiny-tail regime: 1 − head is pure cancellation noise (≈ machine
    # epsilon); the partial sum is accurate because tails this small decay
    # within the truncation slack.
    return min(partial, 1.0)


def radius_bound_r1(epsilon: float) -> float:
    """``R₁`` of Eq. (5): convergence radius of ``A(ZD(Z))``.

    ``R₁ = sqrt((2/sqrt(1 − ε²) − 1/(1 + ε)) / (1 + ε))
        = 1 + ε³/2 + O(ε⁴)``.
    """
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    inner = 2.0 / math.sqrt(1.0 - epsilon * epsilon) - 1.0 / (1.0 + epsilon)
    return math.sqrt(inner / (1.0 + epsilon))


def evaluate_f(epsilon: float, q_unique: float, z: float, order: int = 400) -> float:
    """Numeric value of ``F(z)`` (Bound 1's denominator series) at real z."""
    p, q = bias_probabilities(epsilon)
    q_multi = q - q_unique
    if 4 * p * q * z * z >= 1.0:
        raise ValueError(f"D(z) diverges at z = {z}")
    descent = (1.0 - math.sqrt(1.0 - 4 * p * q * z * z)) / (2 * p * z)
    x = z * descent
    if 4 * p * q * x * x >= 1.0:
        raise ValueError(f"A(zD(z)) diverges at z = {z}")
    ascent_at = (1.0 - math.sqrt(1.0 - 4 * p * q * x * x)) / (2 * q * x)
    return p * z * descent + q_unique * z * ascent_at + q_multi * z


def radius_bound_r2(epsilon: float, q_unique: float) -> float:
    """``R₂``: the positive solution of ``F(z) = 1`` (bisection).

    Returns ``R₁`` when ``F`` stays below 1 on the whole convergence
    interval (the ``q_H = 0`` case of the paper).
    """
    r1 = radius_bound_r1(epsilon)
    low, high = 1.0, r1 * (1.0 - 1e-12)
    try:
        f_high = evaluate_f(epsilon, q_unique, high)
    except ValueError:
        f_high = float("inf")
    if f_high < 1.0:
        return r1
    if evaluate_f(epsilon, q_unique, low) >= 1.0:
        return 1.0
    for _ in range(200):
        mid = 0.5 * (low + high)
        try:
            value = evaluate_f(epsilon, q_unique, mid)
        except ValueError:
            value = float("inf")
        if value < 1.0:
            low = mid
        else:
            high = mid
    return low


def bound1_decay_rate(epsilon: float, q_unique: float) -> float:
    """``ln R`` with ``R = min(R₁, R₂)`` — Bound 1's exponential rate.

    The paper shows ``R = exp(Θ(min(ε³, ε² q_h)))``; the returned value is
    the exact logarithm of the dominating series' convergence radius.
    """
    return math.log(min(radius_bound_r1(epsilon), radius_bound_r2(epsilon, q_unique)))


def bound2_decay_rate(epsilon: float) -> float:
    """``ln R₁`` — Bound 2's exponential rate ``ε³(1 + O(ε))/2``."""
    return math.log(radius_bound_r1(epsilon))
