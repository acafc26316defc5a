"""Characteristic strings: validation, ordering, counting (Definitions 1, 6)."""

import pytest

from repro.core import alphabet
from repro.core.alphabet import (
    ADVERSARIAL,
    EMPTY,
    HONEST_MULTI,
    HONEST_UNIQUE,
    BIVALENT_ALPHABET,
    SEMI_SYNCHRONOUS_ALPHABET,
    CharacteristicString,
    InvalidCharacteristicString,
    count_symbols,
    is_a_heavy,
    is_hh_heavy,
    prefix_sums,
    string_leq,
    symbol_leq,
    validate,
    walk_increments,
)

from tests.conftest import all_strings
from tests.core.references import dominating_strings


class TestValidation:
    def test_valid_synchronous_string(self):
        assert validate("hHAAhH") == "hHAAhH"

    def test_empty_string_is_valid(self):
        assert validate("") == ""

    def test_empty_slot_rejected_in_synchronous_alphabet(self):
        with pytest.raises(InvalidCharacteristicString):
            validate("h.A")

    def test_empty_slot_accepted_in_semi_synchronous_alphabet(self):
        assert validate("h.A", SEMI_SYNCHRONOUS_ALPHABET) == "h.A"

    def test_bivalent_alphabet_rejects_unique_honest(self):
        with pytest.raises(InvalidCharacteristicString):
            validate("hH", BIVALENT_ALPHABET)

    def test_arbitrary_symbols_rejected(self):
        with pytest.raises(InvalidCharacteristicString):
            validate("hxA")


class TestSymbolPredicates:
    def test_honest_symbols(self):
        assert alphabet.is_honest(HONEST_UNIQUE)
        assert alphabet.is_honest(HONEST_MULTI)
        assert not alphabet.is_honest(ADVERSARIAL)
        assert not alphabet.is_honest(EMPTY)

    def test_adversarial_symbol(self):
        assert alphabet.is_adversarial(ADVERSARIAL)
        assert not alphabet.is_adversarial(HONEST_UNIQUE)

    def test_count_symbols(self):
        counts = count_symbols("hHA.h")
        assert counts == {"h": 2, "H": 1, "A": 1, ".": 1}

    def test_honest_and_adversarial_counts(self):
        assert alphabet.honest_count("hHAAH") == 3
        assert alphabet.adversarial_count("hHAAH") == 2


class TestHeaviness:
    def test_hh_heavy_needs_strict_majority(self):
        assert is_hh_heavy("hHA")
        assert not is_hh_heavy("hA")  # tie is A-heavy
        assert is_a_heavy("hA")

    def test_empty_interval_is_a_heavy(self):
        assert is_a_heavy("")

    def test_empty_slots_count_for_neither(self):
        assert is_hh_heavy("h.")
        assert is_a_heavy("A.")


class TestPartialOrder:
    def test_symbol_order_chain(self):
        assert symbol_leq(HONEST_UNIQUE, HONEST_MULTI)
        assert symbol_leq(HONEST_MULTI, ADVERSARIAL)
        assert symbol_leq(HONEST_UNIQUE, ADVERSARIAL)
        assert not symbol_leq(ADVERSARIAL, HONEST_UNIQUE)

    def test_string_order_coordinatewise(self):
        assert string_leq("hh", "HA")
        assert not string_leq("HA", "hh")
        assert not string_leq("hA", "Ah")  # incomparable

    def test_string_order_requires_equal_lengths(self):
        with pytest.raises(ValueError):
            string_leq("h", "hh")

    def test_reflexive(self):
        for word in all_strings("hHA", 3):
            assert string_leq(word, word)

    def test_dominating_strings_contains_all_upper_bounds(self):
        dominated = set(dominating_strings("hH"))
        assert dominated == {"hH", "hA", "HH", "HA", "AH", "AA"}

    def test_dominating_strings_are_the_upper_set_of_string_leq(self):
        for word in all_strings("hHA", 3):
            uppers = all_strings("hHA", len(word), min_length=len(word))
            assert set(dominating_strings(word)) == {
                upper for upper in uppers if string_leq(word, upper)
            }

    def test_dominating_strings_of_adversarial_is_singleton(self):
        assert set(dominating_strings("AA")) == {"AA"}

    def test_dominance_transitive_on_length_two(self):
        words = list(all_strings("hHA", 2, min_length=2))
        for a in words:
            for b in words:
                for c in words:
                    if string_leq(a, b) and string_leq(b, c):
                        assert string_leq(a, c)


class TestWalk:
    def test_walk_increments(self):
        assert walk_increments("hHA.") == [-1, -1, 1, 0]

    def test_prefix_sums_start_at_zero(self):
        assert prefix_sums("AhH") == [0, 1, 0, -1]

    def test_prefix_sums_length(self):
        word = "hAhA"
        assert len(prefix_sums(word)) == len(word) + 1


class TestCharacteristicString:
    def test_round_trip(self):
        cs = CharacteristicString("hHA")
        assert str(cs) == "hHA"
        assert len(cs) == 3
        assert list(cs) == ["h", "H", "A"]

    def test_slot_is_one_based(self):
        cs = CharacteristicString("hHA")
        assert cs.slot(1) == "h"
        assert cs.slot(3) == "A"
        with pytest.raises(IndexError):
            cs.slot(0)
        with pytest.raises(IndexError):
            cs.slot(4)

    def test_interval_closed_one_based(self):
        cs = CharacteristicString("hHAhH")
        assert cs.interval(2, 4) == "HAh"
        with pytest.raises(IndexError):
            cs.interval(0, 2)

    def test_equality_and_hash(self):
        assert CharacteristicString("hA") == CharacteristicString("hA")
        assert hash(CharacteristicString("hA")) == hash(CharacteristicString("hA"))

    def test_order_operator(self):
        assert CharacteristicString("hh") <= CharacteristicString("HA")

    def test_validation_on_construction(self):
        with pytest.raises(InvalidCharacteristicString):
            CharacteristicString("h?A")
