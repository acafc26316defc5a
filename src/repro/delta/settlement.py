"""(k, Δ)-settlement (Definition 23) and the Theorem 7 bound.

Definition 23 counts *blocks* rather than slots: slot ``s`` is not
(k, Δ)-settled when some Δ-fork has two maximum-length tines that both
carry at least k vertices after slot ``s``, diverge before ``s``, and at
least one contains a vertex labelled ``s``.  Lemma 2 transfers the
question to the reduced string: a Catalan slot of ``ρ_Δ(w)`` inside the
window — whose walk afterwards escapes below by more than Δ — settles the
source slot.

This module exposes:

* a per-string decision procedure via the reduced string's margins
  (sufficient conditions from Lemma 2 / Theorem 3 and the exact margin
  criterion on the reduced string);
* the Theorem 7 probability bound (delegating to
  :mod:`repro.analysis.bounds`).

Sampled (k, Δ)-settlement failure rates run through the engine: the
``delta-synchronous`` scenario with the batched
:func:`repro.engine.runner.delta_settlement_violation` estimator.
"""

from __future__ import annotations

from repro.core.alphabet import EMPTY, prefix_sums
from repro.core.catalan import catalan_slots
from repro.core.distributions import SlotProbabilities
from repro.core.margin import margin_sequence
from repro.analysis.bounds import theorem7_settlement_bound
from repro.delta.reduction import reduce_string, slot_bijection


def is_k_delta_settled(word: str, slot: int, depth: int, delta: int) -> bool:
    """Is ``slot`` (k = depth, Δ = delta)-settled in the semi-sync ``word``?

    Decided on the reduced string: slot ``s`` maps to ``π(s)``; the
    settlement criterion is the margin condition of Lemma 1 applied to
    ``ρ_Δ(w)``, with the suffix threshold counted in reduced slots (each
    reduced slot carries at most one block per tine, so ``depth`` blocks
    require at least ``depth`` reduced slots after ``π(s)``).  Empty
    target slots are vacuously settled (they carry no block).
    """
    if not 1 <= slot <= len(word):
        raise ValueError(f"slot {slot} outside [1, {len(word)}]")
    if word[slot - 1] == EMPTY:
        return True
    reduced = reduce_string(word, delta)
    mapping = slot_bijection(word)
    target = mapping[slot]
    sequence = margin_sequence(reduced, target - 1)
    considered = sequence[depth:] if depth >= 1 else sequence[1:]
    return all(value < 0 for value in considered)


def lemma2_settles(word: str, slot: int, depth: int, delta: int) -> bool:
    """The sufficient condition of Lemma 2 (one-sided, conservative).

    True when the reduced string has a Catalan slot ``c'`` within the
    window of ``depth`` reduced slots after ``π(slot)`` whose walk
    afterwards stays more than Δ below its level at ``c'``.  Guarantees
    (|y'|, Δ)-settlement of ``slot``; ``False`` is inconclusive.
    """
    reduced = reduce_string(word, delta)
    mapping = slot_bijection(word)
    if word[slot - 1] == EMPTY:
        return True
    target = mapping[slot]
    window_end = min(target + depth - 1, len(reduced))
    sums = prefix_sums(reduced)
    for c in catalan_slots(reduced):
        if not target <= c <= window_end:
            continue
        escape_from = c + depth
        if escape_from > len(reduced):
            continue
        if all(
            sums[i] <= sums[c] - delta
            for i in range(escape_from, len(reduced) + 1)
        ):
            return True
    return False


def theorem7_error_bound(
    probabilities: SlotProbabilities, depth: int, delta: int
) -> float:
    """Theorem 7's bound on ``Pr[slot s is not (k, Δ)-settled]``.

    Wraps :func:`repro.analysis.bounds.theorem7_settlement_bound` with the
    library's parameter object.  Requires semi-synchronous parameters
    (``p_⊥ > 0`` when Δ > 0).
    """
    return theorem7_settlement_bound(
        probabilities.activity,
        probabilities.p_adversarial,
        probabilities.p_unique,
        delta,
        depth,
    )

