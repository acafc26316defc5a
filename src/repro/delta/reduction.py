"""The reduction map ρ_Δ (Definition 22) and its stochastic properties.

The Δ-synchronous analysis reuses the synchronous machinery through a
string surgery: an honest slot that is followed by another honest slot
within Δ slots *may* have its block delivered too late to be counted, so
the reduction conservatively relabels it adversarial; empty slots are
deleted.  Formally, with ``b`` the leading symbol::

    ρ_Δ(⊥ w) = ρ_Δ(w)
    ρ_Δ(b w) = b · ρ_Δ(w)   if b ∈ {h, H} and the next Δ symbols are in {⊥, A}
    ρ_Δ(b w) = A · ρ_Δ(w)   otherwise

(the second case also requires at least Δ remaining symbols, so the last
Δ honest slots of a finite string are always relabelled — the "distortion"
Proposition 4 sets aside).

Proposition 4: when the source symbols are i.i.d. with activity
``f = 1 − p_⊥``, the reduced string (minus its distorted tail) is i.i.d.
with ``p'_σ = p_σ · β / f`` for honest σ and
``p'_A = 1 − β + p_A · β / f``, where ``β = (1 − f)^Δ``.

Paper erratum (window semantics)
--------------------------------

Definition 22 as printed keeps an honest symbol when the next Δ symbols
lie in ``{⊥, A}`` — adversarial slots allowed in the window.  The proof
of Proposition 4, however, decomposes the string into ``⊥``-runs and
keeps an honest symbol only when it is followed by **Δ consecutive empty
slots**; only under that (more conservative) rule are the reduced symbols
independent, and only then does ``β = (1 − f)^Δ`` appear (under the
printed rule the survival probability is ``(p_⊥ + p_A)^Δ`` and
consecutive reduced symbols are correlated).  Both variants are sound
reductions — relabelling *more* honest slots as adversarial only
strengthens the adversary — and the empty-run string dominates the
quiet-window string in the Definition 6 partial order.
:func:`reduce_string` implements both; ``mode="empty-run"`` (the proof's
semantics, default) is the one the stochastic results of Section 8 apply
to, and ``mode="quiet-window"`` is Definition 22 verbatim.  The batched
kernel :func:`repro.engine.kernels.reduce_matrix`, which every sampled
(k, Δ)-settlement estimate runs, implements only the empty-run rule.
"""

from __future__ import annotations

from repro.core.alphabet import (
    ADVERSARIAL,
    EMPTY,
    SEMI_SYNCHRONOUS_ALPHABET,
    validate,
)
from repro.core.distributions import SlotProbabilities

#: Keep honest symbols followed by Δ consecutive ⊥ (Proposition 4's proof).
MODE_EMPTY_RUN = "empty-run"
#: Keep honest symbols followed by Δ symbols in {⊥, A} (Definition 22).
MODE_QUIET_WINDOW = "quiet-window"


def reduce_string(word: str, delta: int, mode: str = MODE_EMPTY_RUN) -> str:
    """``ρ_Δ(word)`` — the synchronous image of a semi-synchronous string.

    See the module docstring for the two window semantics; the default
    matches Proposition 4 and Theorem 7.
    """
    validate(word, SEMI_SYNCHRONOUS_ALPHABET)
    if delta < 0:
        raise ValueError(f"delta must be non-negative, got {delta}")
    if mode == MODE_EMPTY_RUN:
        allowed = (EMPTY,)
    elif mode == MODE_QUIET_WINDOW:
        allowed = (EMPTY, ADVERSARIAL)
    else:
        raise ValueError(f"unknown reduction mode {mode!r}")
    reduced = []
    for index, symbol in enumerate(word):
        if symbol == EMPTY:
            continue
        if symbol == ADVERSARIAL:
            reduced.append(ADVERSARIAL)
            continue
        window = word[index + 1 : index + 1 + delta]
        quiet = len(window) == delta and all(c in allowed for c in window)
        reduced.append(symbol if quiet else ADVERSARIAL)
    return "".join(reduced)


def slot_bijection(word: str) -> dict[int, int]:
    """The increasing bijection π: non-empty slots of ``w`` → slots of ρ_Δ(w).

    ``π[i] = j`` means source slot ``i`` (1-based) became reduced slot
    ``j``; empty slots have no image.  π depends only on the ⊥ positions,
    so it is the same for every Δ.
    """
    validate(word, SEMI_SYNCHRONOUS_ALPHABET)
    mapping: dict[int, int] = {}
    position = 0
    for index, symbol in enumerate(word, start=1):
        if symbol == EMPTY:
            continue
        position += 1
        mapping[index] = position
    return mapping


def reduction_beta(activity: float, delta: int) -> float:
    """``β = (1 − f)^Δ`` — probability a slot is followed by Δ quiet slots.

    Theorem 7's central quantity: an honest slot survives the reduction
    with probability β (given the i.i.d. source law).
    """
    if not 0 < activity <= 1:
        raise ValueError(f"activity must lie in (0, 1], got {activity}")
    return (1.0 - activity) ** delta


def reduced_probabilities(
    probabilities: SlotProbabilities, delta: int
) -> SlotProbabilities:
    """Proposition 4: the i.i.d. law of the reduced string's prefix.

    The empty-slot mass disappears (reduced strings are synchronous); an
    honest symbol survives iff its Δ-window is quiet (probability β, with
    the geometric-gap argument of the proof), else it is absorbed into
    ``A``.
    """
    activity = probabilities.activity
    if activity >= 1.0 and delta > 0:
        # With no empty slots every window contains an active slot, so every
        # honest symbol within range of another is relabelled: β = 0 would
        # make the reduced string all-adversarial.  Surface this explicitly.
        raise ValueError(
            "activity f = 1 with delta > 0 reduces every honest slot to A; "
            "the Δ-synchronous model requires f < 1"
        )
    beta = reduction_beta(activity, delta)
    scale = beta / activity
    p_unique = probabilities.p_unique * scale
    p_multi = probabilities.p_multi * scale
    p_adversarial = 1.0 - beta + probabilities.p_adversarial * scale
    return SlotProbabilities(p_unique, p_multi, p_adversarial)


def reduced_epsilon(probabilities: SlotProbabilities, delta: int) -> float:
    """The honest-majority margin ε' of the reduced string.

    ``ε' = 1 − 2 p'_A``; Theorem 7's hypothesis (Eq. (20)) is exactly
    ``ε' ≥ ε``, i.e. the reduced string still has honest majority.
    """
    return reduced_probabilities(probabilities, delta).epsilon
