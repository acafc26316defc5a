"""Δ-forks (Definition 21) and the image isomorphism (Proposition 3).

A Δ-fork relaxes the synchronous depth axiom F4: honest blocks must be
strictly deeper only than honest blocks *more than Δ slots* older
(axiom F4Δ), reflecting that a leader may not yet have seen blocks
broadcast within the last Δ slots.  Empty slots (``.``) may label no
vertex.

Proposition 3 states that applying ρ_Δ to the characteristic string and
relabelling every vertex through the slot bijection π turns any Δ-fork
into a *synchronous* fork for the reduced string — this is what lets every
synchronous theorem transfer.  :func:`image_fork` implements the
relabelling and the tests verify the image satisfies F1–F4.
"""

from __future__ import annotations

from repro.core.forks import Fork, ForkAxiomViolation, Vertex
from repro.delta.reduction import reduce_string, slot_bijection


class DeltaFork(Fork):
    """A fork under the Δ-synchronous depth axiom F4Δ.

    Identical to :class:`repro.core.forks.Fork` except that validation
    replaces F4 by F4Δ: for honest labels ``i + Δ < j``, every vertex
    labelled ``i`` is strictly shallower than every vertex labelled ``j``.
    """

    def __init__(self, word: str, delta: int) -> None:
        if delta < 0:
            raise ValueError(f"delta must be non-negative, got {delta}")
        super().__init__(word)
        self.delta = delta

    def _validate_f4(self) -> None:
        honest_depths: dict[int, list[int]] = {}
        for vertex in self.vertices():
            if vertex is self.root:
                continue
            if self.is_honest_vertex(vertex):
                honest_depths.setdefault(vertex.label, []).append(vertex.depth)
        labels = sorted(honest_depths)
        for i, earlier in enumerate(labels):
            for later in labels[i + 1 :]:
                if earlier + self.delta < later:
                    if max(honest_depths[earlier]) >= min(honest_depths[later]):
                        raise ForkAxiomViolation(
                            f"honest depths not increasing between slots "
                            f"{earlier} and {later} at distance > Δ = "
                            f"{self.delta} (F4Δ)"
                        )

    def copy(self) -> "DeltaFork":
        clone = DeltaFork(self.word, self.delta)
        mapping = {self.root: clone.root}
        for vertex in self.vertices():
            if vertex is self.root:
                continue
            mapping[vertex] = clone.add_vertex(mapping[vertex.parent], vertex.label)
        return clone


def image_fork(fork: DeltaFork) -> Fork:
    """The synchronous image of a Δ-fork under ρ_Δ (Proposition 3).

    Copies the tree and relabels each vertex ``u`` to ``π(ℓ(u))``.  The
    result is a fork for ``ρ_Δ(word)``; validity (in particular the
    synchronous F4) is guaranteed by the proposition because any honest
    slot within Δ of a later honest slot was relabelled adversarial, and
    is checked explicitly by the tests.
    """
    reduced_word = reduce_string(fork.word, fork.delta)
    mapping = slot_bijection(fork.word)
    image = Fork(reduced_word)
    correspondence: dict[Vertex, Vertex] = {fork.root: image.root}
    for vertex in fork.vertices():
        if vertex is fork.root:
            continue
        parent_image = correspondence[vertex.parent]
        correspondence[vertex] = image.add_vertex(
            parent_image, mapping[vertex.label]
        )
    return image
