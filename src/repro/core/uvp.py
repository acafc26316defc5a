"""The Unique Vertex Property and the Bottleneck Property (Definition 4).

A slot ``s`` has the *bottleneck property* in ``w`` when, in every fork
``F ⊢ w``, every tine viable at the onset of any later slot passes through
some vertex labelled ``s``.  It has the *Unique Vertex Property* (UVP)
when that vertex is moreover unique: all future viable chains share one
specific block from slot ``s``, pinning the entire history up to ``s``.

Characterisations implemented here:

* **Theorem 3** — a *uniquely honest* slot has the UVP iff it is Catalan;
* **Fact 3** — an honest slot with the bottleneck property is Catalan (and
  a Catalan slot has the bottleneck property, via Fact 2);
* **Lemma 1** — a uniquely honest slot ``s`` has the UVP iff
  ``μ_x(y) < 0`` for every split ``w = xy`` with ``|x| = s − 1``,
  ``|y| ≥ 1``;
* **Theorem 4** — under the consistent tie-breaking axiom A0′, two
  consecutive Catalan slots give the earlier one the UVP even when it is
  multiply honest.

Both the Catalan route and the margin route are implemented so that the
test-suite can cross-validate them; a structural checker working on
explicit fork objects provides a third, definition-level oracle for small
strings.
"""

from __future__ import annotations

from repro.core.alphabet import HONEST_UNIQUE, is_honest
from repro.core.catalan import _check_slot, catalan_slots, is_catalan
from repro.core.forks import Fork
from repro.core.margin import margin_sequence


def has_uvp(word: str, slot: int) -> bool:
    """Does ``slot`` have the UVP in ``word``? (Theorem 3 route.)

    Only uniquely honest slots can have the UVP under the adversarial
    tie-breaking axiom A0 (an ``H`` slot may carry several vertices, and
    an ``A`` slot's vertices are adversarial); for those slots the UVP is
    equivalent to being Catalan.
    """
    _check_slot(word, slot)
    if word[slot - 1] != HONEST_UNIQUE:
        return False
    return is_catalan(word, slot)


def has_uvp_by_margin(word: str, slot: int) -> bool:
    """Lemma 1: UVP ⇔ every suffix margin is negative.

    Independent of :func:`has_uvp`; the two must agree on uniquely honest
    slots (a theorem of the paper, and a test of this library).
    """
    _check_slot(word, slot)
    if word[slot - 1] != HONEST_UNIQUE:
        return False
    sequence = margin_sequence(word, slot - 1)
    return all(value < 0 for value in sequence[1:])


def has_bottleneck_property(word: str, slot: int) -> bool:
    """Bottleneck property ⇔ Catalan, for honest slots (Facts 2 and 3)."""
    _check_slot(word, slot)
    if not is_honest(word[slot - 1]):
        return False
    return is_catalan(word, slot)


def uvp_slots(word: str) -> list[int]:
    """All slots with the UVP (uniquely honest Catalan slots; Theorem 3)."""
    return [s for s in catalan_slots(word) if word[s - 1] == HONEST_UNIQUE]


def uvp_slots_consistent_tiebreak(word: str) -> list[int]:
    """Slots with the UVP under axiom A0′ (Theorem 4).

    With a consistent longest-chain tie-breaking rule, slot ``s`` has the
    UVP when slots ``s`` and ``s + 1`` are both Catalan — even for
    multiply honest ``s`` — and additionally when ``s`` is uniquely honest
    Catalan (Theorem 3 still applies).  The final slot of two trailing
    consecutive Catalan slots gets only the bottleneck property, so it is
    excluded here.
    """
    catalan = set(catalan_slots(word))
    slots = set()
    for s in catalan:
        if word[s - 1] == HONEST_UNIQUE:
            slots.add(s)
        if s + 1 in catalan:
            slots.add(s)
    return sorted(slots)


def uvp_holds_in_fork(fork: Fork, slot: int) -> bool:
    """Definition-level UVP check on one explicit fork.

    True when some single vertex ``u`` labelled ``slot`` lies on *every*
    tine viable at the onset of every slot ``k ≥ slot + 1`` (vacuously
    false when a viable tine misses the slot entirely).  Used by the
    test-suite against exhaustively enumerated forks.
    """
    word = fork.word
    _check_slot(word, slot)
    candidates = fork.vertices_with_label(slot)
    if not candidates:
        return False
    for candidate in candidates:
        if _is_common_to_all_viable(fork, candidate, slot):
            return True
    return False


def bottleneck_holds_in_fork(fork: Fork, slot: int) -> bool:
    """Definition-level bottleneck check on one explicit fork."""
    word = fork.word
    _check_slot(word, slot)
    for onset in range(slot + 1, len(word) + 2):
        for tine in fork.viable_tines_at_onset(onset):
            if all(v.label != slot for v in tine.vertices()):
                return False
    return True


def _is_common_to_all_viable(fork: Fork, candidate, slot: int) -> bool:
    for onset in range(slot + 1, len(fork.word) + 2):
        for tine in fork.viable_tines_at_onset(onset):
            if not candidate.is_ancestor_of(tine.vertex):
                return False
    return True
