"""The common-prefix property (Section 9) and its UVP-based analysis.

``k-CP^slot`` (Definition 24): for every pair of viable tines with
``ℓ(t1) ≤ ℓ(t2)``, the tine ``t1`` trimmed of its last k *slots* is a
prefix of ``t2``.  A traditional k-CP violation (trimming k *blocks*)
implies a k-CP^slot violation, so bounding the latter suffices.

The structural bridge (Eq. (25)): if every length-k window of ``w``
contains a slot with the UVP, ``w`` satisfies k-CP^slot.  Theorem 8 turns
this into the probability bound ``T · e^{−Ω(k·min(ε³, ε²p_h))}``, and
Theorem 9 (Appendix A) shows the converse construction — a fork with slot
divergence > k yields an x-balanced fork, i.e. a settlement violation.

This module provides per-string CP predicates, the window analysis, and
samplers for the CP benchmark; on an explicit fork, Definition 24 is
:func:`repro.core.balanced.slot_divergence` exceeding k.
"""

from __future__ import annotations

import random

from repro.core.distributions import (
    SlotProbabilities,
    sample_characteristic_string,
)
from repro.core.uvp import uvp_slots, uvp_slots_consistent_tiebreak


def uvp_free_windows(word: str, depth: int, consistent: bool = False) -> list[int]:
    """Start slots of length-``depth`` windows containing no UVP slot.

    Such windows are the only places a k-CP^slot violation can live
    (Eq. (25)); an empty result certifies the property for the string.
    """
    slots = (
        uvp_slots_consistent_tiebreak(word) if consistent else uvp_slots(word)
    )
    marked = set(slots)
    windows = []
    for start in range(1, len(word) - depth + 2):
        if not any(s in marked for s in range(start, start + depth)):
            windows.append(start)
    return windows


def satisfies_k_cp_slot(word: str, depth: int, consistent: bool = False) -> bool:
    """Sufficient UVP-window certificate for k-CP^slot (one-sided).

    True ⇒ the string satisfies k-CP^slot.  False is inconclusive: the
    implication (25) only runs one way.
    """
    return not uvp_free_windows(word, depth, consistent)


def estimate_cp_violation_rate(
    probabilities: SlotProbabilities,
    total_length: int,
    depth: int,
    trials: int,
    rng: random.Random,
    consistent: bool = False,
) -> float:
    """Monte-Carlo rate of strings *not* certified by the UVP windows.

    An upper estimate of the k-CP^slot violation rate (the certificate is
    one-sided), directly comparable to the Theorem 8 bound.
    """
    failures = 0
    for _ in range(trials):
        word = sample_characteristic_string(probabilities, total_length, rng)
        if not satisfies_k_cp_slot(word, depth, consistent):
            failures += 1
    return failures / trials
