"""Catalan slots (Definition 11) and their efficient detection.

A slot ``s`` of a characteristic string ``w`` is

* *left-Catalan* when every interval ``[ℓ, s]`` (``1 ≤ ℓ ≤ s``) is hH-heavy,
* *right-Catalan* when every interval ``[s, r]`` (``s ≤ r ≤ T``) is
  hH-heavy, and
* *Catalan* when it is both.

Catalan slots act as barriers for the adversary (Fact 2): every chain viable
after a Catalan slot must contain an honest block from it, which is the
engine behind the Unique Vertex Property (Theorem 3).

Walk characterisation
---------------------

With the Section 5 walk ``S_t`` (``+1`` on ``A``, ``−1`` on honest, ``0``
on ``⊥``):

* ``[ℓ, s]`` is hH-heavy for all ℓ  ⇔  ``S_s < S_j`` for all ``j < s``
  (the walk reaches a strict new minimum at ``s``);
* ``[s, r]`` is hH-heavy for all r  ⇔  ``S_r < S_{s−1}`` for all
  ``r ∈ [s, T]`` (the walk never returns to its pre-``s`` level).

Both conditions are computed for every slot simultaneously in O(n) via
prefix minima and suffix maxima, giving :func:`catalan_slots`.  The
per-slot tests :func:`is_left_catalan`, :func:`is_right_catalan` and
:func:`is_catalan` read Definition 11 directly (quadratic); the tests
hold :func:`catalan_slots` to them slot by slot.
"""

from __future__ import annotations

from repro.core.alphabet import is_honest, prefix_sums
from repro.core.intervals import IntervalOracle


def is_left_catalan(word: str, slot: int) -> bool:
    """Left-Catalan test straight from Definition 11 (quadratic)."""
    _check_slot(word, slot)
    oracle = IntervalOracle(word)
    return all(oracle.is_hh_heavy(left, slot) for left in range(1, slot + 1))


def is_right_catalan(word: str, slot: int) -> bool:
    """Right-Catalan test straight from Definition 11 (quadratic)."""
    _check_slot(word, slot)
    oracle = IntervalOracle(word)
    return all(
        oracle.is_hh_heavy(slot, right) for right in range(slot, len(word) + 1)
    )


def is_catalan(word: str, slot: int) -> bool:
    """True when ``slot`` is Catalan in ``word`` (Definition 11)."""
    return is_left_catalan(word, slot) and is_right_catalan(word, slot)


def catalan_slots(word: str) -> list[int]:
    """All Catalan slots of ``word`` in increasing order, in O(n).

    Uses the walk characterisation described in the module docstring.
    """
    length = len(word)
    if length == 0:
        return []
    sums = prefix_sums(word)

    # prefix_min[t] = min(S_0 .. S_t); strict new minimum at s means
    # S_s < prefix_min[s - 1].
    prefix_min = [0] * (length + 1)
    for t in range(1, length + 1):
        prefix_min[t] = min(prefix_min[t - 1], sums[t])

    # suffix_max[t] = max(S_t .. S_T); "never returns" at s means
    # suffix_max[s] < S_{s-1}, i.e. every S_r with r >= s stays strictly
    # below the pre-s level.
    suffix_max = [0] * (length + 2)
    suffix_max[length + 1] = -(10 ** 18)
    for t in range(length, -1, -1):
        suffix_max[t] = max(sums[t], suffix_max[t + 1])

    slots = []
    for s in range(1, length + 1):
        if not is_honest(word[s - 1]):
            continue
        new_minimum = sums[s] < prefix_min[s - 1]
        never_returns = suffix_max[s] < sums[s - 1]
        if new_minimum and never_returns:
            slots.append(s)
    return slots


def catalan_slots_naive(word: str) -> list[int]:
    """Quadratic-per-slot reference implementation (tests only)."""
    return [s for s in range(1, len(word) + 1) if is_catalan(word, s)]


def _check_slot(word: str, slot: int) -> None:
    if not 1 <= slot <= len(word):
        raise IndexError(f"slot {slot} outside [1, {len(word)}]")
