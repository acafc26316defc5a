"""Slot settlement (Definition 3).

Slot ``s`` is *k-settled* in ``w`` when no fork for any sufficiently long
prefix of ``w`` contains two maximum-length tines diverging before ``s``.
Settlement failures are exactly what an exchange waiting ``k`` slots before
crediting a deposit cares about.

The operational characterisations used here:

* a slot ``t ∈ [s, s + k]`` with the UVP forces ``s`` to be k-settled
  (Eq. (1));
* slot ``s`` admits a violation *at the end of* ``w``  ⇔
  ``μ_{w[:s−1]}(w[s−1:]) ≥ 0``  (Fact 6 / Observation 2 via x-balanced
  forks);
* the optimal adversary wins the settlement game of Section 2.2 on
  ``w`` exactly when ``not is_k_settled(w, s, k)``; the move-by-move
  game, which any adversary strategy can be played in, is
  :mod:`repro.core.game`.
"""

from __future__ import annotations

from repro.core.margin import margin_sequence
from repro.core.uvp import uvp_slots, uvp_slots_consistent_tiebreak


def is_k_settled(word: str, slot: int, depth: int) -> bool:
    """Is ``slot`` k-settled (``k = depth``) in ``word``? (Definition 3.)

    Evaluated via relative margin: a violation witnessed by a fork for a
    prefix ``ŵ = xy`` with ``|x| = slot − 1`` and ``|y| ≥ depth`` exists
    iff ``μ_x(y) ≥ 0`` for some such ``y`` (Fact 6).  Margins for every
    suffix length come from one O(|word|) recurrence pass.
    """
    if not 1 <= slot <= len(word):
        raise ValueError(f"slot {slot} outside [1, {len(word)}]")
    if depth < 0:
        raise ValueError(f"negative settlement depth {depth}")
    sequence = margin_sequence(word, slot - 1)
    considered = sequence[depth:] if depth >= 1 else sequence[1:]
    return all(value < 0 for value in considered)


def settlement_violation_slots(word: str, depth: int) -> list[int]:
    """Slots of ``word`` that are *not* k-settled (``k = depth``)."""
    return [
        slot
        for slot in range(1, len(word) + 1)
        if not is_k_settled(word, slot, depth)
    ]


def settled_by_uvp(word: str, slot: int, depth: int) -> bool:
    """Sufficient condition of Eq. (1): some slot in ``[slot, slot + depth]``
    has UVP.

    A one-sided (conservative) test.  The window ends at ``slot + depth``,
    so ``True`` settles ``slot`` against every prefix reaching one slot
    past it: in :func:`is_k_settled`'s convention, where the ``depth``
    observed slots start at ``slot`` itself, ``True`` guarantees
    ``is_k_settled(word, slot, depth + 1)``, not ``depth``-settlement
    (``"HHAhHHAHAHAHhhAHHh"`` at slot 12, depth 1 is the witness).  On
    ``False`` settlement may still hold.  Both gaps are exercised in
    tests.
    """
    window_end = min(slot + depth, len(word))
    return any(slot <= t <= window_end for t in uvp_slots(word))


def settled_by_uvp_consistent(word: str, slot: int, depth: int) -> bool:
    """Eq. (1) with the A0′ (consistent tie-breaking) UVP slots (Thm. 4)."""
    window_end = min(slot + depth, len(word))
    return any(
        slot <= t <= window_end
        for t in uvp_slots_consistent_tiebreak(word)
    )


def settlement_time(word: str, slot: int) -> int | None:
    """Smallest ``k`` such that ``slot`` is k-settled in ``word``.

    ``None`` when even observing the whole string leaves the slot
    unsettled (i.e. the final margin is still non-negative).  Otherwise
    the returned ``k`` satisfies: every fork for every prefix of length
    ≥ ``slot + k`` keeps slot ``slot`` settled.  Raises ``ValueError``
    for a slot outside ``[1, len(word)]``, as :func:`is_k_settled` does.
    """
    if not 1 <= slot <= len(word):
        raise ValueError(f"slot {slot} outside [1, {len(word)}]")
    sequence = margin_sequence(word, slot - 1)
    violations = [t for t, value in enumerate(sequence) if value >= 0 and t >= 1]
    if not violations:
        return 1
    last_violation = violations[-1]
    if last_violation == len(sequence) - 1:
        return None
    return last_violation + 1
