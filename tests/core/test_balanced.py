"""Balanced forks, Fact 6 constructively, slot divergence (Defs. 18, 25)."""

from repro.core.balanced import (
    build_x_balanced_fork,
    figure_2_fork,
    figure_3_fork,
    is_balanced,
    is_x_balanced,
    slot_divergence,
)
from repro.core.forks import Fork
from repro.core.margin import relative_margin

from tests.conftest import random_strings


class TestFigureForks:
    def test_figure_2_is_balanced(self):
        fork = figure_2_fork()
        fork.validate()
        assert is_balanced(fork)

    def test_figure_2_witness_tines_fully_disjoint(self):
        fork = figure_2_fork()
        longest = fork.maximum_length_tines()
        witnesses = [
            (left, right)
            for i, left in enumerate(longest)
            for right in longest[i + 1 :]
            if left.is_disjoint_after(right, 0)
        ]
        assert witnesses
        for left, right in witnesses:
            labels_left = {v.label for v in left.vertices() if v.label}
            labels_right = {v.label for v in right.vertices() if v.label}
            assert labels_left.isdisjoint(labels_right)

    def test_figure_3_is_x_balanced_not_balanced(self):
        fork = figure_3_fork()
        fork.validate()
        assert is_x_balanced(fork, 2)
        assert not is_balanced(fork)

    def test_linear_fork_not_balanced(self):
        fork = Fork("hh")
        v1 = fork.add_vertex(fork.root, 1)
        fork.add_vertex(v1, 2)
        assert not is_balanced(fork)


class TestFact6Constructive:
    def test_balanced_fork_built_iff_margin_nonnegative(self):
        """Fact 6 constructively, including the self-pair corner.

        A fork is always built when ``μ_x(y) ≥ 0`` and the suffix contains
        an adversarial slot (then every witness is realisable as two
        distinct chains); never when ``μ_x(y) < 0``.  When the suffix has
        no adversarial slot the margin convention may be witnessed only by
        a self-pair with empty reserve, which cannot present two distinct
        chains — the builder is allowed to return ``None`` there.
        """
        for word in random_strings("hHA", 50, 2, 16, seed=71):
            for prefix_length in range(0, len(word)):
                fork = build_x_balanced_fork(word, prefix_length)
                margin_ok = relative_margin(word, prefix_length) >= 0
                suffix_has_adversarial = "A" in word[prefix_length:]
                if not margin_ok:
                    assert fork is None, (word, prefix_length)
                elif suffix_has_adversarial:
                    assert fork is not None, (word, prefix_length)
                if fork is not None:
                    assert margin_ok
                    assert is_x_balanced(fork, prefix_length), (
                        word,
                        prefix_length,
                    )

    def test_built_forks_satisfy_axioms(self):
        for word in random_strings("hHA", 30, 4, 16, seed=72):
            fork = build_x_balanced_fork(word, 0)
            if fork is not None:
                fork.validate()

    def test_figure_strings_round_trip(self):
        assert build_x_balanced_fork("hAhAhA", 0) is not None
        assert build_x_balanced_fork("hhhAhA", 2) is not None
        assert build_x_balanced_fork("hhhhh", 0) is None


class TestSlotDivergence:
    def test_linear_fork_has_zero_divergence(self):
        fork = Fork("hhh")
        parent = fork.root
        for slot in (1, 2, 3):
            parent = fork.add_vertex(parent, slot)
        assert slot_divergence(fork) == 0

    def test_balanced_fork_divergence(self):
        fork = figure_2_fork()
        # the two tines diverge at genesis; the later tine label is 5 or 6
        assert slot_divergence(fork) >= 5

    def test_divergence_bounded_by_length(self):
        for word in random_strings("hHA", 20, 4, 12, seed=73):
            fork = build_x_balanced_fork(word, 0)
            if fork is not None:
                assert slot_divergence(fork) <= len(word)
