"""Distributions over characteristic strings (Definitions 6, 7; Theorem 7).

The central object is the (ε, p_h)-Bernoulli condition of Definition 7:
symbols are i.i.d. with

* ``Pr[A] = p_A = (1 − ε) / 2``,
* ``Pr[h] = p_h``  (a free parameter in ``[0, (1 + ε)/2]``), and
* ``Pr[H] = p_H = 1 − p_A − p_h``.

The semi-synchronous variant of Theorem 7 adds empty slots: ``Pr[⊥] = 1 − f``
where ``f`` is the *active-slot coefficient* and ``p_h + p_H + p_A = f``.

An adversarially correlated "martingale" law, which satisfies
``Pr[w_i = A | w_1..w_{i-1}] ≤ p_A`` without being i.i.d., is sampled by
:func:`repro.engine.kernels.martingale_from_uniforms`; the paper's
Theorem 1 covers such laws via stochastic dominance (Definition 6).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.core.alphabet import (
    ADVERSARIAL,
    EMPTY,
    HONEST_MULTI,
    HONEST_UNIQUE,
)


@dataclass(frozen=True)
class SlotProbabilities:
    """Per-slot symbol probabilities ``(p_h, p_H, p_A, p_⊥)``.

    ``p_empty`` is zero in the synchronous setting.  The honest-majority
    margin ε and the paper's standard parameters are exposed as properties.
    """

    p_unique: float
    p_multi: float
    p_adversarial: float
    p_empty: float = 0.0

    def __post_init__(self) -> None:
        total = self.p_unique + self.p_multi + self.p_adversarial + self.p_empty
        if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-9):
            raise ValueError(f"probabilities sum to {total}, expected 1")
        for name, value in (
            ("p_unique", self.p_unique),
            ("p_multi", self.p_multi),
            ("p_adversarial", self.p_adversarial),
            ("p_empty", self.p_empty),
        ):
            if value < -1e-12 or value > 1 + 1e-12:
                raise ValueError(f"{name} = {value} outside [0, 1]")

    @property
    def p_honest(self) -> float:
        """``p_h + p_H`` — probability the slot is honest."""
        return self.p_unique + self.p_multi

    @property
    def activity(self) -> float:
        """The active-slot coefficient ``f = 1 − p_⊥``."""
        return 1.0 - self.p_empty

    @property
    def epsilon(self) -> float:
        """Honest-majority margin: ε with ``p_A = (1 − ε)/2`` (synchronous).

        Only meaningful when there are no empty slots; for semi-synchronous
        parameters use :meth:`repro.delta.reduction.reduced_probabilities`.
        """
        return 1.0 - 2.0 * self.p_adversarial

    def as_tuple(self) -> tuple[float, float, float, float]:
        """``(p_h, p_H, p_A, p_⊥)`` as a plain tuple."""
        return (self.p_unique, self.p_multi, self.p_adversarial, self.p_empty)


def bernoulli_condition(epsilon: float, p_unique: float) -> SlotProbabilities:
    """The (ε, p_h)-Bernoulli condition of Definition 7.

    ``p_A = (1 − ε)/2``, ``p_H = 1 − p_A − p_h``.  Raises ``ValueError``
    when ``p_h`` exceeds the honest mass ``(1 + ε)/2``.
    """
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    p_adversarial = (1.0 - epsilon) / 2.0
    honest_mass = 1.0 - p_adversarial
    if not 0 <= p_unique <= honest_mass + 1e-12:
        raise ValueError(
            f"p_h = {p_unique} outside [0, {honest_mass}] for epsilon = {epsilon}"
        )
    p_multi = max(honest_mass - p_unique, 0.0)
    return SlotProbabilities(p_unique, p_multi, p_adversarial)


def bivalent_condition(epsilon: float) -> SlotProbabilities:
    """The (ε, 0)-Bernoulli condition on bivalent strings (Definition 8).

    Every honest slot is multiply honest; used with the consistent
    tie-breaking axiom A0′ and Theorem 2.
    """
    return bernoulli_condition(epsilon, 0.0)


def from_adversarial_stake(
    alpha: float, unique_fraction: float = 1.0
) -> SlotProbabilities:
    """Parameters from an adversarial-stake bound ``α = p_A``.

    ``unique_fraction`` is ``p_h / (1 − α)`` — the fraction of honest slots
    that are uniquely honest; this is exactly the row parameter of Table 1.
    """
    if not 0 <= alpha < 0.5:
        raise ValueError(f"adversarial probability must be in [0, 0.5), got {alpha}")
    if not 0 <= unique_fraction <= 1:
        raise ValueError(f"unique_fraction must be in [0, 1], got {unique_fraction}")
    p_unique = (1.0 - alpha) * unique_fraction
    p_multi = (1.0 - alpha) - p_unique
    return SlotProbabilities(p_unique, p_multi, alpha)


def semi_synchronous_condition(
    activity: float, p_adversarial: float, p_unique: float
) -> SlotProbabilities:
    """Semi-synchronous parameters of Theorem 7.

    ``activity`` is ``f = 1 − p_⊥``; ``p_A`` and ``p_h`` are absolute
    per-slot probabilities with ``p_A + p_h ≤ f``; the remainder of the
    active mass is multiply honest.
    """
    if not 0 < activity <= 1:
        raise ValueError(f"activity must lie in (0, 1], got {activity}")
    if p_adversarial < 0 or p_unique < 0 or p_adversarial + p_unique > activity + 1e-12:
        raise ValueError("need p_A, p_h >= 0 and p_A + p_h <= f")
    p_multi = max(activity - p_adversarial - p_unique, 0.0)
    return SlotProbabilities(p_unique, p_multi, p_adversarial, 1.0 - activity)


def sample_characteristic_string(
    probabilities: SlotProbabilities,
    length: int,
    rng: random.Random,
) -> str:
    """Draw ``w ∈ {h, H, A, .}^length`` with i.i.d. symbols."""
    p_h, p_bigh, p_adv, _p_empty = probabilities.as_tuple()
    threshold_h = p_h
    threshold_bigh = p_h + p_bigh
    threshold_adv = threshold_bigh + p_adv
    symbols = []
    for _ in range(length):
        u = rng.random()
        if u < threshold_h:
            symbols.append(HONEST_UNIQUE)
        elif u < threshold_bigh:
            symbols.append(HONEST_MULTI)
        elif u < threshold_adv:
            symbols.append(ADVERSARIAL)
        else:
            symbols.append(EMPTY)
    return "".join(symbols)


def exact_string_probability(probabilities: SlotProbabilities, word: str) -> float:
    """``Pr[w = word]`` under the i.i.d. law — for exhaustive small-T sums."""
    p_h, p_bigh, p_adv, p_empty = probabilities.as_tuple()
    weight = {
        HONEST_UNIQUE: p_h,
        HONEST_MULTI: p_bigh,
        ADVERSARIAL: p_adv,
        EMPTY: p_empty,
    }
    probability = 1.0
    for symbol in word:
        probability *= weight[symbol]
    return probability
