"""Catalan slots: definition, fast detection, structural facts (Def. 11)."""

from repro.core.catalan import (
    catalan_slots,
    catalan_slots_naive,
    is_catalan,
    is_left_catalan,
    is_right_catalan,
)
from repro.core.alphabet import is_honest
from repro.core.settlement import settled_by_uvp
from repro.core.uvp import uvp_slots, uvp_slots_consistent_tiebreak

from tests.conftest import all_strings, random_strings


class TestDefinitions:
    def test_single_honest_slot_is_catalan(self):
        assert is_catalan("h", 1)
        assert is_catalan("H", 1)

    def test_single_adversarial_slot_is_not(self):
        assert not is_catalan("A", 1)

    def test_left_catalan_example(self):
        # [1,2] of 'Ah' is a tie -> A-heavy -> slot 2 not left-Catalan.
        assert not is_left_catalan("Ah", 2)
        assert is_left_catalan("hh", 2)

    def test_right_catalan_example(self):
        assert not is_right_catalan("hA", 1)  # [1,2] tie
        assert is_right_catalan("hh", 1)

    def test_catalan_needs_both_sides(self):
        # slot 2 of 'hhA': left [1,2] heavy, right [2,3] tie -> not Catalan.
        assert is_left_catalan("hhA", 2)
        assert not is_right_catalan("hhA", 2)
        assert not is_catalan("hhA", 2)

    def test_multiply_honest_slots_count(self):
        """The key improvement over prior analyses: H slots are not wasted."""
        assert is_catalan("HHH", 2)
        assert catalan_slots("HHH") == [1, 2, 3]


class TestFastDetection:
    def test_fast_matches_naive_exhaustively(self):
        for word in all_strings("hHA", 8, min_length=1):
            assert catalan_slots(word) == catalan_slots_naive(word), word

    def test_fast_matches_naive_on_random_long_strings(self):
        for word in random_strings("hHA", 40, 20, 60, seed=11):
            assert catalan_slots(word) == catalan_slots_naive(word), word

    def test_left_right_decomposition(self):
        for word in random_strings("hHA", 40, 5, 40, seed=12):
            slots = range(1, len(word) + 1)
            left = {s for s in slots if is_left_catalan(word, s)}
            right = {s for s in slots if is_right_catalan(word, s)}
            assert set(catalan_slots(word)) == (left & right), word

    def test_catalan_slots_are_honest(self):
        for word in random_strings("hHA", 30, 5, 40, seed=13):
            for slot in catalan_slots(word):
                assert is_honest(word[slot - 1])


class TestStructuralFacts:
    def test_neighbours_of_catalan_are_honest(self):
        """The slots adjacent to a Catalan slot must be honest (Section 3.2)."""
        for word in random_strings("hHA", 60, 5, 40, seed=14):
            for slot in catalan_slots(word):
                if slot > 1:
                    assert is_honest(word[slot - 2]), (word, slot)
                if slot < len(word):
                    assert is_honest(word[slot]), (word, slot)

    def test_all_honest_string_is_all_catalan(self):
        word = "hhHHh"
        assert catalan_slots(word) == [1, 2, 3, 4, 5]

    def test_majority_adversarial_has_no_catalan(self):
        assert catalan_slots("AAhAA") == []

    def test_replacing_h_with_catalan_survives(self):
        """Catalan-ness only counts honest vs adversarial, not multiplicity."""
        for word in random_strings("hA", 30, 5, 30, seed=15):
            upgraded = word.replace("h", "H")
            assert catalan_slots(word) == catalan_slots(upgraded)


class TestHelpers:
    def test_uniquely_honest_catalan_slots(self):
        """Theorem 3: the UVP slots are the Catalan slots labelled h."""
        assert uvp_slots("hHh") == [1, 3]
        for word in random_strings("hHA", 40, 5, 40, seed=14):
            expected = [s for s in catalan_slots(word) if word[s - 1] == "h"]
            assert uvp_slots(word) == expected, word

    def test_first_uniquely_honest_catalan(self):
        # slot 2 of 'Ahh' is not left-Catalan ([1,2] is a tie); slot 3 is.
        assert uvp_slots("Ahh") == [3]
        assert uvp_slots("AAA") == []
        assert uvp_slots("HHH") == []

    def test_consecutive_pairs(self):
        """Theorem 4: s and s + 1 both Catalan give s the A0′ UVP."""
        assert uvp_slots_consistent_tiebreak("HHH") == [1, 2]
        assert uvp_slots_consistent_tiebreak("HAH") == []

    def test_window_query(self):
        """Eq. (1) asks for a UVP slot in the window [s, s + k]."""
        word = "AAhhhhhAA"
        assert catalan_slots(word) == [5]
        assert settled_by_uvp(word, 3, 2)
        assert not settled_by_uvp(word, 6, 3)


class TestWalkCharacterisation:
    def test_new_minimum_and_no_return(self):
        """Catalan ⇔ strict new walk minimum + the walk never returns."""
        from repro.core.alphabet import prefix_sums

        for word in random_strings("hHA", 50, 5, 40, seed=16):
            sums = prefix_sums(word)
            for slot in range(1, len(word) + 1):
                if not is_honest(word[slot - 1]):
                    continue
                new_min = all(sums[slot] < sums[j] for j in range(slot))
                no_return = all(
                    sums[r] < sums[slot - 1]
                    for r in range(slot, len(word) + 1)
                )
                assert is_catalan(word, slot) == (new_min and no_return)
