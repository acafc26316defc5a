"""Gap, reserve, reach and the ρ recurrence (Definitions 13, 14; Theorem 5)."""

from tests.core.enumeration import enumerate_forks
from repro.core.forks import Fork
from repro.core.reach import (
    gap,
    max_reach,
    reach,
    reach_sequence,
    reserve,
    rho,
)

from tests.conftest import all_strings, random_strings
from tests.core.references import dominating_strings


def two_tine_fork() -> Fork:
    """w = hAA: honest 0→1 and adversarial 0→2."""
    fork = Fork("hAA")
    fork.add_vertex(fork.root, 1)
    fork.add_vertex(fork.root, 2)
    return fork


class TestDefinitions:
    def test_reserve_counts_later_adversarial_indices(self):
        fork = two_tine_fork()
        v1, v2 = fork.vertices()[1:]
        assert reserve(fork, fork.root) == 2
        assert reserve(fork, v1) == 2
        assert reserve(fork, v2) == 1

    def test_gap_against_height(self):
        fork = two_tine_fork()
        v1 = fork.vertices()[1]
        assert gap(fork, fork.root) == 1
        assert gap(fork, v1) == 0

    def test_reach_is_reserve_minus_gap(self):
        fork = two_tine_fork()
        for vertex in fork.vertices():
            assert reach(fork, vertex) == reserve(fork, vertex) - gap(
                fork, vertex
            )

    def test_max_reach_never_negative_for_closed_forks(self):
        for word in all_strings("hHA", 5, min_length=1):
            for fork in enumerate_forks(word, 2, 2):
                assert max_reach(fork) >= 0, word


    def test_zero_and_max_reach_vertex_sets(self):
        """A longest tine has gap 0, so its reach is its reserve ≥ 0;
        ρ(F) is at least that reserve."""
        for word in all_strings("hHA", 4, min_length=1):
            for fork in enumerate_forks(word, 2, 2):
                for tine in fork.maximum_length_tines():
                    top = tine.vertex
                    assert gap(fork, top) == 0
                    assert reach(fork, top) == reserve(fork, top) >= 0
                    assert max_reach(fork) >= reserve(fork, top)


class TestRecurrence:
    def test_base_cases(self):
        assert rho("") == 0
        assert rho("A") == 1
        assert rho("h") == 0
        assert rho("H") == 0

    def test_reflection_at_zero(self):
        assert rho("hh") == 0
        assert rho("Ahh") == 0
        assert rho("AAhh") == 0

    def test_adversarial_run(self):
        assert rho("AAAA") == 4
        assert rho("AAAAh") == 3

    def test_sequence_prefix_consistency(self):
        word = "AhHAAhA"
        sequence = reach_sequence(word)
        for i in range(len(word) + 1):
            assert sequence[i] == rho(word[:i])

    def test_recurrence_matches_enumeration(self):
        """ρ(w) from Theorem 5 equals the brute-force fork maximum."""
        for word in all_strings("hHA", 4, min_length=1):
            forks = enumerate_forks(word, 2, 2)
            assert max(max_reach(f) for f in forks) == rho(word), word

    def test_recurrence_matches_enumeration_sampled_length5(self):
        for word in random_strings("hHA", 12, 5, 5, seed=21):
            forks = enumerate_forks(word, 2, 2)
            assert max(max_reach(f) for f in forks) == rho(word), word

    def test_monotone_in_partial_order(self):
        """More adversarial strings have at least the reach (Def. 6)."""
        for word in all_strings("hHA", 4, min_length=1):
            base = rho(word)
            for upper in dominating_strings(word):
                assert rho(upper) >= base
