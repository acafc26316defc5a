"""Biased random walks and the barrier distribution X_∞ (Section 5).

The probabilistic proofs of Bounds 1–3 study the ±1 walk induced by a
characteristic string (``+1`` on ``A``, ``−1`` on honest symbols) with
downward bias ε.  Two closed forms here are read by the analysis and
the engine:

* :func:`bias_probabilities` — the walk's up/down masses ``(p, q)``; and
* :func:`stationary_reach_ratio` — the ratio β of the geometric law
  ``X_∞`` of Eq. (9), ``Pr[X_∞ ≥ t] = β^t``: the stationary height of
  the reflected walk ``X_t = S_t − min_{i≤t} S_i`` and the initial-reach
  distribution of the Section 6.6 algorithm.

The two scalar samplers below draw the first descent time and the
height ``X_m`` after m steps; the tests check with them that the mean
descent time is ``1/ε`` and that ``X_m ⪯ X_∞``.

The engine imports this module's closed-form helpers; nothing here
imports the engine.
"""

from __future__ import annotations

import random


def bias_probabilities(epsilon: float) -> tuple[float, float]:
    """``(p, q)`` with ``p = (1 − ε)/2`` up-mass and ``q = (1 + ε)/2``.

    ``q − p = ε`` is the downward bias of the walk.
    """
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    return (1.0 - epsilon) / 2.0, (1.0 + epsilon) / 2.0


def stationary_reach_ratio(epsilon: float) -> float:
    """``β = (1 − ε)/(1 + ε)`` — the geometric ratio of X_∞."""
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    return (1.0 - epsilon) / (1.0 + epsilon)


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
