"""Common-prefix property analysis (Section 9)."""

from repro.analysis.cp import (
    estimate_cp_violation_rate,
    satisfies_k_cp_slot,
    uvp_free_windows,
)
from repro.analysis.bounds import theorem8_cp_bound
from repro.core.balanced import (
    build_x_balanced_fork,
    figure_2_fork,
    slot_divergence,
)
from repro.core.distributions import bernoulli_condition
from repro.core.forks import Fork
from repro.core.margin import margin_sequence

from tests.conftest import random_strings


class TestWindows:
    def test_all_honest_has_no_uvp_free_windows(self):
        assert uvp_free_windows("hhhhhh", 2) == []

    def test_adversarial_run_is_uvp_free(self):
        windows = uvp_free_windows("AAAA", 2)
        assert windows == [1, 2, 3]

    def test_consistent_mode_weakly_fewer_windows(self):
        for word in random_strings("HA", 20, 10, 30, seed=81):
            strict = uvp_free_windows(word, 4, consistent=False)
            relaxed = uvp_free_windows(word, 4, consistent=True)
            assert set(relaxed) <= set(strict)


class TestCpPredicates:
    def test_all_honest_satisfies_cp(self):
        """An all-``h`` string is certified, and every relative margin
        past its first step is negative, so no split ``w = xyz`` can
        carry a balanced fork (Theorem 9 and Fact 6)."""
        word = "hhhhhhhh"
        assert satisfies_k_cp_slot(word, 2)
        for start in range(len(word)):
            assert max(margin_sequence(word, start)[1:], default=-1) < 0

    def test_certificate_implies_negative_margins(self):
        """UVP windows certify k-CP^slot: no split ``w = xyz`` with
        ``|y| ≥ k`` then has ``μ_x(y) ≥ 0`` (Theorem 9 and Fact 6)."""
        # The honest-heavy sample certifies 10 of its 100 cases; the
        # uniform one only 2.
        words = random_strings("hHA", 50, 8, 30, seed=82) + random_strings(
            "hhhHA", 50, 8, 30, seed=83
        )
        for word in words:
            for depth in (3, 5):
                if satisfies_k_cp_slot(word, depth):
                    for start in range(len(word)):
                        margins = margin_sequence(word, start)[depth:]
                        assert max(margins, default=-1) < 0, (word, depth)

    def test_balanced_string_violates_cp(self):
        # hAhAhA keeps two diverging maximal chains alive past 3 slots
        assert not satisfies_k_cp_slot("hAhAhA", 3)
        assert slot_divergence(build_x_balanced_fork("hAhAhA", 0)) > 3

    def test_fork_level_violation(self):
        """Definition 24: slot divergence above k violates k-CP^slot."""
        fork = figure_2_fork()
        assert slot_divergence(fork) > 3

    def test_fork_level_no_violation_on_chain(self):
        fork = Fork("hhh")
        parent = fork.root
        for slot in (1, 2, 3):
            parent = fork.add_vertex(parent, slot)
        assert slot_divergence(fork) <= 1


class TestTheorem8Comparison:
    def test_bound_dominates_empirical_rate(self, rng):
        epsilon, p_unique = 0.5, 0.5
        probs = bernoulli_condition(epsilon, p_unique)
        total_length, depth = 120, 25
        rate = estimate_cp_violation_rate(
            probs, total_length, depth, 800, rng
        )
        bound = theorem8_cp_bound(total_length, epsilon, p_unique, depth)
        assert bound >= rate - 0.05
