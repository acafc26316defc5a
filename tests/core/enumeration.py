"""Exhaustive fork enumeration on short strings (test ground truth).

The recurrences of Theorem 5 and the characterisations of Theorem 3 /
Lemma 1 are verified by the tests against brute force: this module
enumerates (up to configurable per-slot caps) every fork ``F ⊢ w``
satisfying axioms F1–F4, so that quantities like ``ρ(w)``, ``μ_x(y)`` and
the UVP can be evaluated straight from their definitions.

Enumeration is exponential and intended for ``|w| ≤ 6`` with small caps.
Caps are sound for these tests because

* honest slots never need more than two vertices to witness any reach or
  margin value (the optimal adversary ``A*`` of Figure 4 adds at most two
  per multiply honest slot), and
* forks produced by our constructive algorithms provide matching lower
  bounds, so capped enumeration serves as the *upper* bound check.

States are deduplicated by a canonical nested-tuple form, which keeps the
state space manageable.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from repro.core.alphabet import (
    ADVERSARIAL,
    HONEST_MULTI,
    HONEST_UNIQUE,
)
from repro.core.forks import Fork, Vertex


def canonical_form(fork: Fork) -> tuple:
    """Order-independent canonical encoding of a fork's labelled tree."""

    def encode(vertex: Vertex) -> tuple:
        return (vertex.label, tuple(sorted(encode(c) for c in vertex.children)))

    return encode(fork.root)


def enumerate_forks(
    word: str,
    max_multi_vertices: int = 2,
    max_adversarial_vertices: int = 2,
    closed_only: bool = True,
) -> list[Fork]:
    """All capped forks ``F ⊢ word`` satisfying F1–F4, deduplicated.

    ``max_multi_vertices`` caps vertices per multiply honest slot (paper:
    unbounded, adversary's choice); ``max_adversarial_vertices`` caps
    vertices per adversarial slot.  With ``closed_only`` (Definition 12)
    forks with adversarial leaves are discarded — those are the forks over
    which ρ and μ maximise.

    ``closed_only`` also prunes as it goes: an intermediate fork with more
    adversarial leaves than the rest of the word can still add honest
    vertices (one per ``h``, ``max_multi_vertices`` per ``H``) can never
    close.  An honest vertex covers at most one leaf and an adversarial
    vertex never lowers the count, so every extension of such a fork is
    pruned too, and the closed forks come out the same and in the same
    order as without the prune.
    """
    capacity = _honest_capacity(word, max_multi_vertices)
    forks: dict[tuple, Fork] = {}
    initial = Fork(word)
    forks[canonical_form(initial)] = initial

    for slot in range(1, len(word) + 1):
        symbol = word[slot - 1]
        next_forks: dict[tuple, Fork] = {}
        for fork in forks.values():
            for extended in _extend_by_slot(
                fork, slot, symbol, max_multi_vertices, max_adversarial_vertices
            ):
                if closed_only and (
                    _adversarial_leaves(extended) > capacity[slot]
                ):
                    continue
                key = canonical_form(extended)
                if key not in next_forks:
                    next_forks[key] = extended
        forks = next_forks

    result = list(forks.values())
    if closed_only:
        result = [fork for fork in result if fork.is_closed()]
    return result


def _honest_capacity(word: str, max_multi: int) -> list[int]:
    """``capacity[s]``: the most honest vertices slots ``s+1 … |word|``
    can still add under the enumeration's caps."""
    capacity = [0] * (len(word) + 1)
    for slot in range(len(word) - 1, -1, -1):
        symbol = word[slot]
        if symbol == HONEST_MULTI:
            added = max_multi
        else:
            added = int(symbol == HONEST_UNIQUE)
        capacity[slot] = capacity[slot + 1] + added
    return capacity


def _adversarial_leaves(fork: Fork) -> int:
    """Leaves of ``fork`` that carry an adversarial slot."""
    return sum(not fork.is_honest_vertex(leaf) for leaf in fork.leaves())


def _extend_by_slot(
    fork: Fork,
    slot: int,
    symbol: str,
    max_multi: int,
    max_adversarial: int,
) -> list[Fork]:
    """All ways to add slot ``slot``'s vertices to ``fork``.

    Honest vertices must land strictly deeper than every honest vertex of
    earlier slots (F4): their parent needs depth ≥ the prior maximum
    honest depth.  Adversarial vertices may attach anywhere (F2 only).
    """
    vertices = fork.vertices()
    if symbol == ADVERSARIAL:
        counts = range(0, max_adversarial + 1)
        eligible = list(range(len(vertices)))
    else:
        threshold = fork.max_honest_depth_up_to(slot - 1)
        eligible = [
            i for i, v in enumerate(vertices) if v.depth >= threshold
        ]
        if symbol == HONEST_UNIQUE:
            counts = range(1, 2)
        elif symbol == HONEST_MULTI:
            counts = range(1, max_multi + 1)
        else:
            raise ValueError(f"unexpected symbol {symbol!r} at slot {slot}")

    extensions = []
    for count in counts:
        if count == 0:
            extensions.append(fork.copy())
            continue
        for parents in combinations_with_replacement(eligible, count):
            clone = fork.copy()
            clone_vertices = clone.vertices()
            for parent_index in parents:
                clone.add_vertex(clone_vertices[parent_index], slot)
            extensions.append(clone)
    return extensions

