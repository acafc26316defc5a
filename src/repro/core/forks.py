"""The fork framework of Definition 2: labelled trees of abstract blocks.

A *fork* ``F ⊢ w`` for a characteristic string ``w ∈ {h, H, A}^n`` is a
rooted tree whose vertices are abstract blocks labelled with slot indices,
subject to the axioms

* **F1** — the root (genesis) has label 0;
* **F2** — labels strictly increase along every root-to-leaf path;
* **F3** — every uniquely honest index labels *exactly one* vertex, every
  multiply honest index labels *at least one* vertex (adversarial indices
  may label any number, including zero);
* **F4** — honest vertices appear at strictly increasing depths: if
  ``i < j`` are honest indices, every vertex labelled ``i`` is strictly
  shallower than every vertex labelled ``j``.

A *tine* is a root-to-vertex path and stands for a blockchain; we identify
a tine with its terminal :class:`Vertex`.  The module implements fork
construction, axiom validation, viability (Section 2), the honest-depth
function ``d(·)``, closedness (Definition 12) and the tine relations
``∼_x`` (Definition 16).

Forks here are plain mutable trees; algorithms that need snapshots use
:meth:`Fork.copy`.  Validation is explicit (:meth:`Fork.validate`) rather
than enforced on every mutation so that adversary implementations can build
forks incrementally.
"""

from __future__ import annotations

from repro.core.alphabet import (
    EMPTY,
    HONEST_MULTI,
    HONEST_UNIQUE,
    is_honest,
)


class ForkAxiomViolation(ValueError):
    """Raised by :meth:`Fork.validate` when an axiom F1–F4 fails."""


class Vertex:
    """One abstract block: a tree node carrying a slot label.

    The root (genesis) vertex has ``label == 0`` and ``parent is None``.
    ``depth`` is the number of edges from the root, which equals the length
    of the tine terminating here (Definition 9).
    """

    __slots__ = ("label", "parent", "children", "depth", "uid")

    def __init__(self, label: int, parent: "Vertex | None", uid: int) -> None:
        self.label = label
        self.parent = parent
        self.children: list[Vertex] = []
        self.depth = 0 if parent is None else parent.depth + 1
        #: Stable creation index; used for deterministic iteration and as a
        #: tie-breaking key by consistent chain-selection rules.
        self.uid = uid

    def __repr__(self) -> str:
        return f"Vertex(label={self.label}, depth={self.depth}, uid={self.uid})"

    def path_from_root(self) -> list["Vertex"]:
        """The tine ending at this vertex, root first."""
        path: list[Vertex] = []
        vertex: Vertex | None = self
        while vertex is not None:
            path.append(vertex)
            vertex = vertex.parent
        path.reverse()
        return path

    def is_ancestor_of(self, other: "Vertex") -> bool:
        """True when ``self`` lies on the tine ending at ``other``.

        Reflexive: every vertex is an ancestor of itself (matching the
        tine-prefix relation ``t1 ⪯ t2`` of Definition 9).
        """
        vertex: Vertex | None = other
        while vertex is not None and vertex.depth >= self.depth:
            if vertex is self:
                return True
            vertex = vertex.parent
        return False


class Tine:
    """A root-to-vertex path viewed as a blockchain (Definition 9).

    Thin value object over a terminal :class:`Vertex` in a specific
    :class:`Fork`; exposes the paper's tine vocabulary (length, label,
    common prefix, the ``∼_x`` relation, viability).
    """

    __slots__ = ("fork", "vertex")

    def __init__(self, fork: "Fork", vertex: Vertex) -> None:
        self.fork = fork
        self.vertex = vertex

    @property
    def length(self) -> int:
        """Number of edges on the path (Definition 9)."""
        return self.vertex.depth

    @property
    def label(self) -> int:
        """``ℓ(t)`` — the slot label of the terminal vertex."""
        return self.vertex.label

    def vertices(self) -> list[Vertex]:
        """Vertices along the tine, root first."""
        return self.vertex.path_from_root()

    def common_prefix(self, other: "Tine") -> Vertex:
        """The last common vertex ``t1 ∩ t2`` (Definition 9)."""
        return lowest_common_ancestor(self.vertex, other.vertex)

    def shares_edge_after(self, other: "Tine", prefix_length: int) -> bool:
        """The relation ``t1 ∼_x t2`` with ``|x| = prefix_length``.

        True when the tines share an edge terminating at a vertex labelled
        in the suffix ``y`` (i.e. with label > ``prefix_length``).
        """
        meet = self.common_prefix(other)
        return meet.label > prefix_length

    def is_disjoint_after(self, other: "Tine", prefix_length: int) -> bool:
        """``t1 ≁_x t2`` — disjoint over the suffix past ``prefix_length``."""
        return not self.shares_edge_after(other, prefix_length)

    def length_up_to_slot(self, slot: int) -> int:
        """Length of the portion of the tine over slots ``0..slot``."""
        length = 0
        for vertex in self.vertices():
            if vertex.label <= slot and vertex.parent is not None:
                length += 1
        return length

    def is_viable_at_onset(self, slot: int) -> bool:
        """Viability at the onset of ``slot`` (Section 2, "Viable tines").

        The portion of the tine over slots ``0..slot−1`` must be at least
        as long as the depth of every honest vertex from those slots.
        An honest observer acting at ``slot`` only ever adopts such tines.
        """
        return self.fork.is_viable_at_onset(self.vertex, slot)

    def is_adversarial(self) -> bool:
        """True when the terminal vertex is adversarial (Section 3.1)."""
        return not self.fork.is_honest_vertex(self.vertex)

    def __repr__(self) -> str:
        labels = [v.label for v in self.vertices()]
        return f"Tine(labels={labels})"


class Fork:
    """A fork ``F ⊢ w`` (Definition 2) as a mutable labelled tree.

    Construction starts from the genesis-only trivial fork; vertices are
    appended with :meth:`add_vertex`.  ``word`` uses the paper's 1-based
    slot indexing: symbol ``word[i - 1]`` governs label ``i``.
    """

    def __init__(self, word: str) -> None:
        self.word = word
        self._uid_counter = 0
        self.root = Vertex(0, None, self._next_uid())
        self._vertices: list[Vertex] = [self.root]

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _next_uid(self) -> int:
        uid = self._uid_counter
        self._uid_counter += 1
        return uid

    def add_vertex(self, parent: Vertex, label: int) -> Vertex:
        """Append a block with slot ``label`` on top of ``parent``.

        Enforces only the local axiom F2 (strictly increasing labels) and
        label range; global axioms are checked by :meth:`validate`.
        """
        if not 1 <= label <= len(self.word):
            raise ForkAxiomViolation(
                f"label {label} outside [1, {len(self.word)}]"
            )
        if label <= parent.label:
            raise ForkAxiomViolation(
                f"label {label} not greater than parent label {parent.label} (F2)"
            )
        if self.word[label - 1] == EMPTY:
            raise ForkAxiomViolation(f"slot {label} is empty: no leader exists")
        vertex = Vertex(label, parent, self._next_uid())
        parent.children.append(vertex)
        self._vertices.append(vertex)
        return vertex

    def extend_word(self, suffix: str) -> None:
        """Append ``suffix`` to the characteristic string (online growth)."""
        self.word = self.word + suffix

    def copy(self) -> "Fork":
        """Deep copy preserving vertex identities only structurally."""
        clone = Fork(self.word)
        mapping = {self.root: clone.root}
        for vertex in self._vertices:
            if vertex is self.root:
                continue
            mapping[vertex] = clone.add_vertex(mapping[vertex.parent], vertex.label)
        return clone

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------

    def vertices(self) -> list[Vertex]:
        """All vertices in creation order (root first)."""
        return list(self._vertices)

    def leaves(self) -> list[Vertex]:
        """Vertices without children."""
        return [v for v in self._vertices if not v.children]

    def tine(self, vertex: Vertex) -> Tine:
        """The tine terminating at ``vertex``."""
        return Tine(self, vertex)

    def tines(self) -> list[Tine]:
        """Every tine of the fork (one per vertex, including the root)."""
        return [Tine(self, v) for v in self._vertices]

    def __len__(self) -> int:
        return len(self._vertices)

    @property
    def height(self) -> int:
        """Length of the longest tine (Definition 9)."""
        return max(v.depth for v in self._vertices)

    def symbol(self, label: int) -> str:
        """The characteristic-string symbol governing ``label``."""
        if label == 0:
            return HONEST_UNIQUE  # genesis is honest by convention
        return self.word[label - 1]

    def is_honest_vertex(self, vertex: Vertex) -> bool:
        """Honest vertices carry labels of honest slots (the root counts)."""
        return vertex.label == 0 or is_honest(self.word[vertex.label - 1])

    def vertices_with_label(self, label: int) -> list[Vertex]:
        """All vertices carrying slot ``label``."""
        return [v for v in self._vertices if v.label == label]

    def honest_vertices(self) -> list[Vertex]:
        """All honest vertices including the root."""
        return [v for v in self._vertices if self.is_honest_vertex(v)]

    # ------------------------------------------------------------------
    # the paper's derived notions
    # ------------------------------------------------------------------

    def honest_depth(self, label: int) -> int:
        """``d(label)`` — largest depth of honest vertices at ``label``.

        Defined for honest slots that carry at least one vertex (F3
        guarantees existence in valid forks).
        """
        depths = [v.depth for v in self.vertices_with_label(label)]
        if not depths:
            raise KeyError(f"no vertex with label {label}")
        return max(depths)

    def max_honest_depth_up_to(self, slot: int) -> int:
        """``max{d(i) : i honest, i ≤ slot}`` (0 when none exist)."""
        best = 0
        for vertex in self._vertices:
            if vertex.label <= slot and self.is_honest_vertex(vertex):
                best = max(best, vertex.depth)
        return best

    def is_viable_at_onset(self, vertex: Vertex, slot: int) -> bool:
        """Viability of the tine ending at ``vertex`` at the onset of ``slot``.

        Compares the tine's length over slots ``< slot`` against the depth
        of every honest vertex from those slots.
        """
        tine = Tine(self, vertex)
        if vertex.label >= slot:
            prefix_length = tine.length_up_to_slot(slot - 1)
        else:
            prefix_length = vertex.depth
        return prefix_length >= self.max_honest_depth_up_to(slot - 1)

    def viable_tines_at_onset(self, slot: int) -> list[Tine]:
        """All tines viable at the onset of ``slot`` whose label is < slot."""
        return [
            Tine(self, v)
            for v in self._vertices
            if v.label < slot and self.is_viable_at_onset(v, slot)
        ]

    def maximum_length_tines(self) -> list[Tine]:
        """Tines achieving ``height(F)``."""
        height = self.height
        return [Tine(self, v) for v in self._vertices if v.depth == height]

    def is_closed(self) -> bool:
        """Closed forks have only honest leaves (Definition 12)."""
        return all(self.is_honest_vertex(leaf) for leaf in self.leaves())

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check axioms F1–F4; raise :class:`ForkAxiomViolation` on failure."""
        self._validate_f1()
        self._validate_f2()
        self._validate_f3()
        self._validate_f4()

    def is_valid(self) -> bool:
        """Convenience wrapper around :meth:`validate`."""
        try:
            self.validate()
        except ForkAxiomViolation:
            return False
        return True

    def _validate_f1(self) -> None:
        if self.root.label != 0:
            raise ForkAxiomViolation(f"root label {self.root.label} != 0 (F1)")
        for vertex in self._vertices:
            if vertex is not self.root and vertex.label == 0:
                raise ForkAxiomViolation("non-root vertex labelled 0 (F1)")

    def _validate_f2(self) -> None:
        for vertex in self._vertices:
            if vertex.parent is not None and vertex.label <= vertex.parent.label:
                raise ForkAxiomViolation(
                    f"labels not increasing: {vertex.parent.label} -> "
                    f"{vertex.label} (F2)"
                )

    def _validate_f3(self) -> None:
        counts: dict[int, int] = {}
        for vertex in self._vertices:
            if vertex is self.root:
                continue
            counts[vertex.label] = counts.get(vertex.label, 0) + 1
        for index, symbol in enumerate(self.word, start=1):
            present = counts.get(index, 0)
            if symbol == HONEST_UNIQUE and present != 1:
                raise ForkAxiomViolation(
                    f"uniquely honest slot {index} has {present} vertices (F3)"
                )
            if symbol == HONEST_MULTI and present < 1:
                raise ForkAxiomViolation(
                    f"multiply honest slot {index} has no vertex (F3)"
                )
            if symbol == EMPTY and present != 0:
                raise ForkAxiomViolation(
                    f"empty slot {index} has {present} vertices"
                )

    def _validate_f4(self) -> None:
        honest_depths: dict[int, list[int]] = {}
        for vertex in self._vertices:
            if vertex is self.root:
                continue
            if self.is_honest_vertex(vertex):
                honest_depths.setdefault(vertex.label, []).append(vertex.depth)
        labels = sorted(honest_depths)
        for earlier, later in zip(labels, labels[1:]):
            if max(honest_depths[earlier]) >= min(honest_depths[later]):
                raise ForkAxiomViolation(
                    f"honest depths not increasing between slots {earlier} "
                    f"and {later} (F4)"
                )

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------

    def to_ascii(self) -> str:
        """Human-readable tree rendering used by the figure benchmarks."""
        lines: list[str] = []

        def walk(vertex: Vertex, indent: str, is_last: bool) -> None:
            marker = "" if vertex is self.root else ("└─ " if is_last else "├─ ")
            honest = self.is_honest_vertex(vertex)
            decoration = f"({vertex.label})" if honest else f"[{vertex.label}]"
            lines.append(f"{indent}{marker}{decoration}")
            child_indent = indent + ("" if vertex is self.root else
                                     ("   " if is_last else "│  "))
            for i, child in enumerate(vertex.children):
                walk(child, child_indent, i == len(vertex.children) - 1)

        walk(self.root, "", True)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"Fork(word={self.word!r}, vertices={len(self._vertices)}, "
            f"height={self.height})"
        )


def lowest_common_ancestor(left: Vertex, right: Vertex) -> Vertex:
    """Deepest vertex lying on both tines (``t1 ∩ t2`` of Definition 9)."""
    a, b = left, right
    while a.depth > b.depth:
        a = a.parent  # type: ignore[assignment]
    while b.depth > a.depth:
        b = b.parent  # type: ignore[assignment]
    while a is not b:
        a = a.parent  # type: ignore[assignment]
        b = b.parent  # type: ignore[assignment]
    return a


def figure_1_fork() -> Fork:
    """The example fork of Figure 1 for ``w = hAhAhHAAH``.

    Three disjoint maximum-length tines; honest slots 6 and 9 each carry
    two concurrent honest vertices.
    """
    fork = Fork("hAhAhHAAH")
    v1 = fork.add_vertex(fork.root, 1)
    # Branch 1: 1 -> 2 -> 3 -> 4 -> 6 -> 9
    v2a = fork.add_vertex(v1, 2)
    v3 = fork.add_vertex(v2a, 3)
    v4a = fork.add_vertex(v3, 4)
    v6a = fork.add_vertex(v4a, 6)
    fork.add_vertex(v6a, 9)
    # Branch 2: 1 -> 2 -> 3 -> 4 -> 6 -> 9 (second vertices for 2, 4, 6, 9)
    v4b = fork.add_vertex(v3, 4)
    v6b = fork.add_vertex(v4b, 6)
    fork.add_vertex(v6b, 9)
    # Branch 3: 1 -> 2' -> 4'' -> 5 -> 7 -> 8
    v2b = fork.add_vertex(v1, 2)
    v4c = fork.add_vertex(v2b, 4)
    v5 = fork.add_vertex(v4c, 5)
    v7 = fork.add_vertex(v5, 7)
    fork.add_vertex(v7, 8)
    return fork
