"""Exhaustive fork enumeration sanity (the ground-truth machinery itself)."""

from tests.conftest import all_strings
from tests.core.enumeration import canonical_form, enumerate_forks
from repro.core.forks import Fork


class TestEnumeration:
    def test_empty_string_single_trivial_fork(self):
        forks = enumerate_forks("")
        assert len(forks) == 1
        assert len(forks[0]) == 1

    def test_single_unique_honest(self):
        forks = enumerate_forks("h")
        assert len(forks) == 1
        assert forks[0].height == 1

    def test_single_multiply_honest_with_cap_two(self):
        forks = enumerate_forks("H", max_multi_vertices=2)
        # one or two sibling vertices labelled 1
        assert len(forks) == 2

    def test_single_adversarial_closed_only_trivial(self):
        forks = enumerate_forks("A")
        assert len(forks) == 1
        assert forks[0].height == 0

    def test_adversarial_leaves_pruned_by_closed_filter(self):
        closed = enumerate_forks("Ah", closed_only=True)
        mixed = enumerate_forks("Ah", closed_only=False)
        assert len(mixed) > len(closed)
        assert all(f.is_closed() for f in closed)

    def test_all_enumerated_forks_are_valid(self):
        for word in ("hA", "Hh", "AAh", "hHA", "AhHA"):
            for fork in enumerate_forks(word, 2, 2):
                fork.validate()

    def test_f4_respected_under_enumeration(self):
        # 'hh' forces a chain: the only fork is linear
        forks = enumerate_forks("hh")
        assert len(forks) == 1
        assert forks[0].height == 2

    def test_canonical_form_deduplicates(self):
        first = Fork("H")
        first.add_vertex(first.root, 1)
        second = Fork("H")
        second.add_vertex(second.root, 1)
        assert canonical_form(first) == canonical_form(second)

    def test_canonical_form_distinguishes_shape(self):
        chain = Fork("hA")
        v1 = chain.add_vertex(chain.root, 1)
        chain.add_vertex(v1, 2)
        split = Fork("hA")
        split.add_vertex(split.root, 1)
        split.add_vertex(split.root, 2)
        assert canonical_form(chain) != canonical_form(split)

    def test_fork_counts_grow_with_adversarial_freedom(self):
        fewer = enumerate_forks("hAh", max_adversarial_vertices=1)
        more = enumerate_forks("hAh", max_adversarial_vertices=2)
        assert len(more) >= len(fewer)

    def test_closed_pruning_keeps_every_closed_fork_in_order(self):
        # closed_only prunes forks that can no longer close; filtering
        # the unpruned enumeration must give the same forks in order.
        for word in all_strings("hHA", 4):
            pruned = enumerate_forks(word, 2, 2)
            unpruned = [
                fork
                for fork in enumerate_forks(word, 2, 2, closed_only=False)
                if fork.is_closed()
            ]
            assert [canonical_form(f) for f in pruned] == [
                canonical_form(f) for f in unpruned
            ], word
