"""Relative margin: the Theorem 5 recurrence versus the fork definition."""

import pytest

from repro.core.adversary_star import build_canonical_fork
from tests.core.enumeration import enumerate_forks
from repro.core.margin import (
    margin,
    margin_of_fork,
    margin_sequence,
    relative_margin,
)
from repro.core.reach import reach_sequence, rho
from repro.core.settlement import is_k_settled

from tests.conftest import all_strings, random_strings
from tests.core.references import dominating_strings, margin_step


class TestRecurrenceBasics:
    def test_empty_suffix_margin_is_prefix_reach(self):
        for word in ("", "A", "hA", "AAh"):
            assert relative_margin(word, len(word)) == rho(word)

    def test_adversarial_symbol_increments(self):
        assert margin("A") == 1
        assert margin("AA") == 2

    def test_unique_honest_from_zero_goes_negative(self):
        assert margin("h") == -1

    def test_multiply_honest_from_zero_stays_zero(self):
        """The crux of the multi-leader analysis: H holds the margin at 0."""
        assert margin("H") == 0
        assert margin("HHHH") == 0

    def test_positive_reach_shields_margin_zero(self):
        # rho('A') = 1 > mu = 0 after 'Ah': margin stays 0 on honest symbol
        assert margin("Ah") == 0
        assert margin("Ahh") == -1

    def test_margin_can_recover_after_negative(self):
        assert margin("hA") == 0
        assert margin("hAA") == 1

    def test_prefix_length_validation(self):
        with pytest.raises(ValueError):
            relative_margin("hA", 3)

    def test_sequence_shape(self):
        word = "hAhH"
        sequence = margin_sequence(word, 1)
        assert len(sequence) == len(word) - 1 + 1
        assert sequence[0] == rho("h")

    def test_joint_trajectory_consistency(self):
        """margin_step carries (ρ, μ) along every suffix (Theorem 5)."""
        word = "AhHAAhhA"
        for prefix_length in range(len(word) + 1):
            r = m = rho(word[:prefix_length])
            trajectory = [(r, m)]
            for symbol in word[prefix_length:]:
                r, m = margin_step(r, m, symbol)
                trajectory.append((r, m))
            reaches = reach_sequence(word)[prefix_length:]
            margins = margin_sequence(word, prefix_length)
            assert [r for r, _ in trajectory] == reaches
            assert [m for _, m in trajectory] == margins

    def test_margin_step_matches_sequence(self):
        word = "AhHA"
        r, m = rho(""), 0
        for i, symbol in enumerate(word):
            r, m = margin_step(r, m, symbol)
            assert m == margin(word[: i + 1])

    def test_margin_at_most_reach(self):
        for word in random_strings("hHA", 50, 1, 30, seed=31):
            for prefix_length in range(len(word) + 1):
                assert relative_margin(word, prefix_length) <= rho(word)


class TestAgainstForkDefinition:
    def test_exhaustive_small_strings(self):
        """μ_x(y) recurrence == max over enumerated closed forks (|w| ≤ 4)."""
        for word in all_strings("hHA", 4, min_length=1):
            forks = enumerate_forks(word, 2, 2)
            for prefix_length in range(len(word) + 1):
                brute = max(
                    margin_of_fork(f, prefix_length) for f in forks
                )
                assert brute == relative_margin(word, prefix_length), (
                    word,
                    prefix_length,
                )

    def test_sampled_length5(self):
        for word in random_strings("hHA", 10, 5, 5, seed=32):
            forks = enumerate_forks(word, 2, 2)
            for prefix_length in range(len(word) + 1):
                brute = max(
                    margin_of_fork(f, prefix_length) for f in forks
                )
                assert brute == relative_margin(word, prefix_length)

    def test_canonical_fork_attains_recurrence(self):
        """A* witnesses the recurrence exactly (the other direction)."""
        for word in random_strings("hHA", 25, 6, 20, seed=33):
            fork = build_canonical_fork(word)
            for prefix_length in range(len(word) + 1):
                assert margin_of_fork(fork, prefix_length) == relative_margin(
                    word, prefix_length
                )


class TestPaperExamples:
    def test_figure_2_string_admits_balanced_fork(self):
        # w = hAhAhA is balanced (Figure 2) so mu_eps >= 0
        assert margin("hAhAhA") >= 0

    def test_figure_3_string_admits_x_balanced_fork(self):
        # w = hhhAhA with x = hh (Figure 3)
        assert relative_margin("hhhAhA", 2) >= 0

    def test_all_honest_string_settles_immediately(self):
        word = "hhhhh"
        for slot in range(1, 6):
            assert relative_margin(word, slot - 1) < 0
            assert is_k_settled(word, slot, 0)


class TestSettlementIndicators:
    def test_settlement_violated_matches_margin_sign(self):
        """Fact 6: at the deepest depth the word witnesses, slot s is
        unsettled exactly when the final margin is non-negative."""
        for word in random_strings("hHA", 40, 2, 25, seed=34):
            for slot in range(1, len(word) + 1):
                depth = len(word) - slot + 1
                unsettled = relative_margin(word, slot - 1) >= 0
                assert is_k_settled(word, slot, depth) == (not unsettled)

    def test_ever_violated_is_weaker_than_final(self):
        for word in random_strings("hHA", 40, 2, 25, seed=35):
            for slot in range(1, len(word) + 1):
                if relative_margin(word, slot - 1) >= 0:
                    assert not is_k_settled(word, slot, 0)

    def test_ever_violated_catches_transient(self):
        # slot 1 of 'hAhh': margin -1, 0, 0, -1 — transient violation only
        # (the third symbol is shielded by ρ = 1 > 0).
        assert margin_sequence("hAhh", 0) == [0, -1, 0, 0, -1]
        assert relative_margin("hAhh", 0) < 0
        assert not is_k_settled("hAhh", 1, 0)
        assert is_k_settled("hAhh", 1, 4)


class TestDominance:
    def test_margin_monotone_in_partial_order(self):
        for word in all_strings("hHA", 4, min_length=1):
            for prefix_length in range(len(word) + 1):
                base = relative_margin(word, prefix_length)
                for upper in dominating_strings(word):
                    assert (
                        relative_margin(upper, prefix_length) >= base
                    ), (word, upper)
