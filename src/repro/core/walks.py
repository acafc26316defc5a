"""Biased random walks and the barrier distribution X_∞ (Section 5).

The probabilistic proofs of Bounds 1–3 study the ±1 walk induced by a
characteristic string (``+1`` on ``A``, ``−1`` on honest symbols) with
downward bias ε.  Three objects from that analysis are implemented here:

* descent/ascent stopping times of the walk and their classical hitting
  probabilities (the "gambler's ruin" constants ``A(1) = p/q``);
* the reflected walk ``X_t = S_t − min_{i≤t} S_i`` tracking the height of
  the walk above its running minimum, whose stationary law is the geometric
  distribution ``X_∞`` of Eq. (9) — the initial-reach distribution of the
  Section 6.6 algorithm; and
* scalar Monte-Carlo samplers (``sample_descent_time``,
  ``sample_reflected_walk_height``) used by the test-suite to validate
  the generating-function coefficients empirically.

The engine imports this module's closed-form helpers; nothing here
imports the engine.
"""

from __future__ import annotations

import math
import random

from repro.core.alphabet import walk_increments


def bias_probabilities(epsilon: float) -> tuple[float, float]:
    """``(p, q)`` with ``p = (1 − ε)/2`` up-mass and ``q = (1 + ε)/2``.

    ``q − p = ε`` is the downward bias of the walk.
    """
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    return (1.0 - epsilon) / 2.0, (1.0 + epsilon) / 2.0


def ruin_probability(epsilon: float) -> float:
    """Probability a downward-biased walk at 0 ever reaches +1: ``p/q``."""
    p, q = bias_probabilities(epsilon)
    return p / q


def stationary_reach_pmf(epsilon: float, maximum: int) -> list[float]:
    """The distribution X_∞ of Eq. (9), truncated to ``[0, maximum]``.

    ``Pr[X_∞ = k] = (1 − β) β^k`` with ``β = (1 − ε)/(1 + ε)``.  The
    returned list has ``maximum + 1`` entries and omits the tail mass
    ``β^{maximum+1}`` (callers that need exactness account for the tail
    separately; see :mod:`repro.analysis.exact`).
    """
    beta = stationary_reach_ratio(epsilon)
    return [(1.0 - beta) * beta**k for k in range(maximum + 1)]


def stationary_reach_ratio(epsilon: float) -> float:
    """``β = (1 − ε)/(1 + ε)`` — the geometric ratio of X_∞."""
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    return (1.0 - epsilon) / (1.0 + epsilon)


def stationary_reach_tail(epsilon: float, threshold: int) -> float:
    """``Pr[X_∞ ≥ threshold] = β^threshold`` (exact geometric tail)."""
    return stationary_reach_ratio(epsilon) ** threshold


def walk_path(word: str) -> list[int]:
    """``S_0 = 0, …, S_T`` for the walk induced by ``word``."""
    path = [0]
    for step in walk_increments(word):
        path.append(path[-1] + step)
    return path


def reflected_walk(word: str) -> list[int]:
    """``X_t = S_t − min_{i ≤ t} S_i`` — height above the running minimum.

    This is the ε-biased walk with a reflecting barrier used in the |x| ≥ 1
    case of Bounds 1 and 2; ``X_{|x|}`` equals the maximum reach ρ(x)
    (Theorem 5 / [4, Lemma 6.1]).
    """
    heights = [0]
    total = 0
    minimum = 0
    for step in walk_increments(word):
        total += step
        minimum = min(minimum, total)
        heights.append(total - minimum)
    return heights


def descent_time(word: str) -> int | None:
    """First ``t`` with ``S_t = −1``, or ``None`` if the walk never descends.

    The generating function of this stopping time over random strings is
    ``D(Z)`` of Section 5.1.
    """
    total = 0
    for t, step in enumerate(walk_increments(word), start=1):
        total += step
        if total == -1:
            return t
    return None


def ascent_time(word: str) -> int | None:
    """First ``t`` with ``S_t = +1`` (generating function ``A(Z)``)."""
    total = 0
    for t, step in enumerate(walk_increments(word), start=1):
        total += step
        if total == 1:
            return t
    return None


def sample_descent_time(
    epsilon: float, rng: random.Random, cutoff: int = 10**6
) -> int | None:
    """Sample the descent stopping time of the ε-biased walk directly."""
    p, _q = bias_probabilities(epsilon)
    position = 0
    for t in range(1, cutoff + 1):
        position += 1 if rng.random() < p else -1
        if position == -1:
            return t
    return None


def sample_reflected_walk_height(
    epsilon: float, steps: int, rng: random.Random
) -> int:
    """Sample ``X_steps`` of the reflected ε-biased walk started at 0."""
    p, _q = bias_probabilities(epsilon)
    height = 0
    for _ in range(steps):
        if rng.random() < p:
            height += 1
        elif height > 0:
            height -= 1
    return height


def expected_descent_time(epsilon: float) -> float:
    """``E[first descent] = 1/ε`` for the ε-biased walk (D'(1))."""
    return 1.0 / epsilon


def geometric_tail_exponent(epsilon: float) -> float:
    """Decay rate ``−ln(1 − ε²)/2`` of the centred walk's return mass.

    ``Pr[S_k = 0]`` decays like ``(1 − ε²)^{k/2}`` (Stirling; used in
    Bound 3's proof) — exposed for the Δ-synchronous error estimates.
    """
    return -math.log1p(-epsilon * epsilon) / 2.0
