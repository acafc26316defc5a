"""The fork framework: axioms F1–F4, tines, viability (Definition 2)."""

import pytest

from repro.core.forks import (
    Fork,
    ForkAxiomViolation,
    figure_1_fork,
    lowest_common_ancestor,
)


def linear_fork(word: str = "hhh") -> Fork:
    """0 → 1 → 2 → 3, the honest-only execution."""
    fork = Fork(word)
    parent = fork.root
    for slot in range(1, len(word) + 1):
        parent = fork.add_vertex(parent, slot)
    return fork


class TestConstruction:
    def test_trivial_fork(self):
        fork = Fork("hA")
        assert fork.root.label == 0
        assert fork.height == 0
        assert len(fork) == 1

    def test_add_vertex_depths(self):
        fork = linear_fork()
        assert fork.height == 3
        assert [v.depth for v in fork.vertices()] == [0, 1, 2, 3]

    def test_labels_must_increase_along_edges(self):
        fork = Fork("hh")
        v2 = fork.add_vertex(fork.root, 2)
        with pytest.raises(ForkAxiomViolation):
            fork.add_vertex(v2, 1)
        with pytest.raises(ForkAxiomViolation):
            fork.add_vertex(v2, 2)

    def test_label_range_enforced(self):
        fork = Fork("h")
        with pytest.raises(ForkAxiomViolation):
            fork.add_vertex(fork.root, 2)
        with pytest.raises(ForkAxiomViolation):
            fork.add_vertex(fork.root, 0)

    def test_empty_slot_cannot_carry_blocks(self):
        fork = Fork("h.h")
        with pytest.raises(ForkAxiomViolation):
            fork.add_vertex(fork.root, 2)

    def test_copy_is_deep(self):
        fork = linear_fork()
        clone = fork.copy()
        clone.add_vertex(clone.root, 1)  # second vertex labelled 1
        assert len(clone) == len(fork) + 1
        assert len(fork.vertices_with_label(1)) == 1


class TestValidation:
    def test_honest_only_linear_fork_is_valid(self):
        linear_fork().validate()

    def test_figure_1_fork_is_valid(self):
        figure_1_fork().validate()

    def test_f3_unique_honest_needs_exactly_one(self):
        fork = Fork("h")
        assert not fork.is_valid()  # zero vertices for slot 1
        fork.add_vertex(fork.root, 1)
        assert fork.is_valid()
        fork.add_vertex(fork.root, 1)
        assert not fork.is_valid()  # two vertices for an 'h' slot

    def test_f3_multiply_honest_needs_at_least_one(self):
        fork = Fork("H")
        assert not fork.is_valid()
        fork.add_vertex(fork.root, 1)
        assert fork.is_valid()
        fork.add_vertex(fork.root, 1)
        assert fork.is_valid()  # several vertices allowed for 'H'

    def test_f3_adversarial_any_number(self):
        fork = Fork("Ah")
        fork.add_vertex(fork.root, 2)
        assert fork.is_valid()  # zero adversarial vertices is fine
        fork.add_vertex(fork.root, 1)
        fork.add_vertex(fork.root, 1)
        assert fork.is_valid()  # several adversarial vertices too

    def test_f4_honest_depth_must_increase(self):
        fork = Fork("hh")
        fork.add_vertex(fork.root, 1)
        fork.add_vertex(fork.root, 2)  # same depth as slot 1's vertex
        with pytest.raises(ForkAxiomViolation):
            fork.validate()

    def test_f4_concurrent_honest_vertices_may_tie(self):
        fork = Fork("hH")
        v1 = fork.add_vertex(fork.root, 1)
        fork.add_vertex(v1, 2)
        fork.add_vertex(v1, 2)  # two label-2 vertices at equal depth
        fork.validate()

    def test_adversarial_vertices_not_constrained_by_f4(self):
        fork = Fork("hA")
        fork.add_vertex(fork.root, 1)
        fork.add_vertex(fork.root, 2)  # adversarial at depth 1, same as honest
        fork.validate()


class TestTines:
    def test_tine_length_and_label(self):
        fork = linear_fork()
        tine = fork.tine(fork.vertices()[-1])
        assert tine.length == 3
        assert tine.label == 3

    def test_common_prefix(self):
        fork = Fork("hAA")
        v1 = fork.add_vertex(fork.root, 1)
        a = fork.add_vertex(v1, 2)
        b = fork.add_vertex(v1, 3)
        assert lowest_common_ancestor(a, b) is v1
        assert fork.tine(a).common_prefix(fork.tine(b)) is v1

    def test_disjointness_relation(self):
        fork = Fork("hAA")
        v1 = fork.add_vertex(fork.root, 1)
        a = fork.add_vertex(v1, 2)
        b = fork.add_vertex(v1, 3)
        ta, tb = fork.tine(a), fork.tine(b)
        # diverge after slot 1: share edge into 1 but nothing later
        assert ta.is_disjoint_after(tb, prefix_length=1)
        assert not ta.is_disjoint_after(tb, prefix_length=0)

    def test_self_disjoint_only_within_prefix(self):
        fork = Fork("hA")
        v1 = fork.add_vertex(fork.root, 1)
        t = fork.tine(v1)
        assert t.is_disjoint_after(t, prefix_length=1)
        assert not t.is_disjoint_after(t, prefix_length=0)

    def test_root_tine_always_disjoint(self):
        fork = Fork("h")
        fork.add_vertex(fork.root, 1)
        root_tine = fork.tine(fork.root)
        assert root_tine.is_disjoint_after(root_tine, prefix_length=0)

    def test_strict_prefix(self):
        """Tine prefixes are ancestor paths (Definition 9's ``t1 ⪯ t2``)."""
        fork = linear_fork()
        vs = fork.vertices()
        short, long_ = fork.tine(vs[1]), fork.tine(vs[3])
        assert vs[1].is_ancestor_of(vs[3])
        assert not vs[3].is_ancestor_of(vs[1])
        assert short.common_prefix(long_) is vs[1]
        assert long_.vertices()[: short.length + 1] == short.vertices()

    def test_last_honest_vertex(self):
        fork = Fork("hA")
        v1 = fork.add_vertex(fork.root, 1)
        v2 = fork.add_vertex(v1, 2)
        honest = [v for v in fork.tine(v2).vertices() if fork.is_honest_vertex(v)]
        assert honest[-1] is v1
        assert fork.honest_depth(1) == 1


class TestViability:
    def test_honest_tines_are_viable(self):
        fork = linear_fork()
        last = fork.vertices()[-1]
        assert fork.is_viable_at_onset(last, 4)

    def test_short_adversarial_tine_not_viable(self):
        fork = Fork("hhA")
        v1 = fork.add_vertex(fork.root, 1)
        fork.add_vertex(v1, 2)
        stub = fork.add_vertex(fork.root, 3)  # adversarial, depth 1
        assert not fork.is_viable_at_onset(stub, 4)

    def test_equal_length_adversarial_tine_is_viable(self):
        fork = Fork("hA")
        fork.add_vertex(fork.root, 1)
        rival = fork.add_vertex(fork.root, 2)
        assert fork.is_viable_at_onset(rival, 3)

    def test_honest_depth_function_is_increasing(self):
        fork = figure_1_fork()
        honest_labels = sorted(
            {v.label for v in fork.honest_vertices() if v.label > 0}
        )
        depths = [fork.honest_depth(label) for label in honest_labels]
        assert depths == sorted(depths)
        assert len(set(depths)) == len(depths)


class TestFigure1:
    def test_three_maximum_length_tines(self):
        fork = figure_1_fork()
        assert len(fork.maximum_length_tines()) == 3

    def test_concurrent_honest_labels(self):
        fork = figure_1_fork()
        assert len(fork.vertices_with_label(6)) == 2
        assert len(fork.vertices_with_label(9)) == 2
        assert len(fork.vertices_with_label(4)) == 3

    def test_closedness(self):
        """The Figure 1 fork is *not* closed: one tine ends at the
        adversarial vertex labelled 8 (closedness is only required when
        maximising reach/margin, not of forks in general)."""
        assert not figure_1_fork().is_closed()

    def test_ascii_rendering_mentions_all_labels(self):
        art = figure_1_fork().to_ascii()
        for label in range(1, 10):
            assert str(label) in art


class TestPrefixes:
    def test_build_fork_helper(self):
        fork = Fork("hAh")
        v1 = fork.add_vertex(fork.root, 1)
        fork.add_vertex(v1, 2)
        fork.add_vertex(v1, 3)
        assert fork.height == 2
        assert len(fork.vertices_with_label(1)) == 1
        fork.validate()
        assert fork.is_valid()
