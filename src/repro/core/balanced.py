"""Balanced forks, slot divergence and the CP↦settlement bridge.

A fork is *balanced* (Definition 18) when it has two maximum-length tines
sharing no edge; it is *x-balanced* when the two tines may share edges over
the prefix ``x`` but are disjoint over the remaining suffix.  An
x-balanced fork is precisely a settlement violation for slot ``|x| + 1``
(Observation 2), and Fact 6 converts existence into the margin sign:
an x-balanced fork for ``xy`` exists  ⇔  ``μ_x(y) ≥ 0``.

This module provides:

* structural balance checks on explicit forks;
* a *constructive* builder that turns a non-negative relative margin into
  an actual x-balanced fork, following the proof of Fact 6 (extend two
  disjoint tines of a canonical fork with adversarial padding);
* slot divergence (Definition 25) and the Figure 2 / Figure 3 example
  forks from the paper.
"""

from __future__ import annotations

from repro.core.alphabet import ADVERSARIAL
from repro.core.adversary_star import build_canonical_fork
from repro.core.forks import Fork, Vertex, lowest_common_ancestor
from repro.core.margin import relative_margin
from repro.core.reach import reach, reserve


def is_balanced(fork: Fork) -> bool:
    """Definition 18: two edge-disjoint maximum-length tines exist."""
    return is_x_balanced(fork, 0)


def is_x_balanced(fork: Fork, prefix_length: int) -> bool:
    """Two maximum-length tines disjoint over the suffix past ``prefix_length``."""
    longest = fork.maximum_length_tines()
    for i, left in enumerate(longest):
        for right in longest[i + 1 :]:
            if left.is_disjoint_after(right, prefix_length):
                return True
    return False


def slot_divergence(fork: Fork) -> int:
    """``div_slot(F)`` — maximum of ``ℓ(t1) − ℓ(t1 ∩ t2)`` (Definition 25).

    Maximised over viable tine pairs with ``ℓ(t1) ≤ ℓ(t2)``; a fork with
    slot divergence ≥ k + 1 is a k-CP^slot violation witness (Section 9).
    """
    vertices = fork.vertices()
    best = 0
    for i, left in enumerate(vertices):
        left_tine = fork.tine(left)
        if not left_tine.is_viable_at_onset(left.label + 1):
            continue
        for right in vertices:
            if right.label < left.label:
                continue
            if not fork.tine(right).is_viable_at_onset(right.label + 1):
                continue
            meet = lowest_common_ancestor(left, right)
            best = max(best, left.label - meet.label)
    return best


def build_x_balanced_fork(word: str, prefix_length: int) -> Fork | None:
    """Construct an x-balanced fork for ``word`` or return ``None``.

    Implements the forward direction of Fact 6 constructively: run ``A*``
    to get a canonical fork, find a pair of suffix-disjoint tines
    witnessing ``μ_x(y) ≥ 0`` and pad both with adversarial vertices from
    their reserve until they tie at the fork's maximum height.

    A witness may be a *self-pair* — a tine labelled within ``x`` counts
    as disjoint from itself over ``y`` (the convention that makes
    ``μ_x(ε) = ρ(x)``).  A self-pair is realised as two sibling
    adversarial paddings, which requires at least one adversarial slot in
    its reserve; a self-pair with empty reserve cannot present two
    *distinct* chains, so it certifies the margin value but not a
    Definition 18 balance witness.  In that corner (only possible when no
    adversarial slot follows the tine's label) the builder falls back to
    the best distinct pair and returns ``None`` if none is non-negative.
    ``None`` is always returned when ``μ_x(y) < 0`` (Fact 6's converse).
    """
    if relative_margin(word, prefix_length) < 0:
        return None
    fork = build_canonical_fork(word)
    pair = _best_realisable_pair(fork, prefix_length)
    if pair is None:
        return None
    left, right = pair

    if left is right:
        # Two sibling paddings of equal length max(gap, 1); the same
        # adversarial labels may be reused on both branches (F3 allows
        # any number of vertices per adversarial index).
        branch_length = max(fork.height - left.depth, 1)
        target = left.depth + branch_length
        first = _pad_to_height(fork, left, target)
        second = _pad_to_height(fork, left, target)
        assert first is not second
    else:
        target = fork.height
        first = _pad_to_height(fork, left, target)
        target = max(target, first.depth)
        second = _pad_to_height(fork, right, target)
        if second.depth > first.depth:
            first = _pad_to_height(fork, first, second.depth)
    assert first.depth == second.depth == fork.height
    return fork


def _best_realisable_pair(
    fork: Fork, prefix_length: int
) -> tuple[Vertex, Vertex] | None:
    """Best suffix-disjoint witness pair that can present two chains.

    Mirrors :func:`repro.core.margin.margin_of_fork` but (a) prefers
    distinct pairs over self-pairs at equal value and (b) only accepts a
    self-pair when its reserve can fund two sibling paddings.  Returns
    ``None`` when no realisable pair has non-negative value.
    """
    vertices = fork.vertices()
    reaches = {v: reach(fork, v) for v in vertices}
    best_value: int | None = None
    best_pair: tuple[Vertex, Vertex] | None = None
    best_is_distinct = False
    for i, left in enumerate(vertices):
        for right in vertices[i:]:
            distinct = left is not right
            if not distinct:
                if left.label > prefix_length:
                    continue
                needed = max(fork.height - left.depth, 1)
                if reserve(fork, left) < needed:
                    continue
            meet = lowest_common_ancestor(left, right)
            if meet.label > prefix_length:
                continue
            value = min(reaches[left], reaches[right])
            better = best_value is None or value > best_value
            tie_upgrade = (
                best_value is not None
                and value == best_value
                and distinct
                and not best_is_distinct
            )
            if better or tie_upgrade:
                best_value = value
                best_pair = (left, right)
                best_is_distinct = distinct
    if best_pair is None or (best_value is not None and best_value < 0):
        return None
    return best_pair


def _pad_to_height(fork: Fork, vertex: Vertex, target: int) -> Vertex:
    """Append adversarial vertices on top of ``vertex`` up to depth ``target``.

    Uses the latest adversarial indices available after the vertex's label
    so the paddings of the two witness tines can overlap in labels (an
    adversarial index may label many vertices).
    """
    needed = target - vertex.depth
    if needed <= 0:
        return vertex
    labels = [
        index
        for index in range(vertex.label + 1, len(fork.word) + 1)
        if fork.word[index - 1] == ADVERSARIAL
    ]
    if len(labels) < needed:
        raise AssertionError(
            "insufficient reserve while padding a non-negative-reach tine"
        )
    current = vertex
    for label in labels[:needed]:
        current = fork.add_vertex(current, label)
    return current


def figure_2_fork() -> Fork:
    """The balanced fork of Figure 2 for ``w = hAhAhA``.

    Two completely disjoint maximum-length tines: the honest chain
    1 → 3 → 5 and the adversarial chain 2 → 4 → 6.
    """
    fork = Fork("hAhAhA")
    v1 = fork.add_vertex(fork.root, 1)
    v3 = fork.add_vertex(v1, 3)
    fork.add_vertex(v3, 5)
    v2 = fork.add_vertex(fork.root, 2)
    v4 = fork.add_vertex(v2, 4)
    fork.add_vertex(v4, 6)
    return fork


def figure_3_fork() -> Fork:
    """The x-balanced fork of Figure 3 for ``w = hhhAhA`` with ``x = hh``.

    The two maximum-length tines share the prefix 1 → 2 and then diverge:
    3 → 5 honestly, 4 → 6 adversarially.
    """
    fork = Fork("hhhAhA")
    v1 = fork.add_vertex(fork.root, 1)
    v2 = fork.add_vertex(v1, 2)
    v3 = fork.add_vertex(v2, 3)
    fork.add_vertex(v3, 5)
    v4 = fork.add_vertex(v2, 4)
    fork.add_vertex(v4, 6)
    return fork
