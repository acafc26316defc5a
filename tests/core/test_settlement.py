"""Slot settlement (Definition 3)."""

import pytest

from repro.core.settlement import (
    catalan_settlement_summary,
    is_k_settled,
    longest_settlement_free_window,
    settled_by_uvp,
    settled_by_uvp_consistent,
    settlement_time,
    settlement_violation_slots,
)

from tests.conftest import random_strings


class TestIsKSettled:
    def test_all_honest_settles_everything(self):
        word = "hhhhh"
        for slot in range(1, 6):
            for depth in range(0, 5):
                assert is_k_settled(word, slot, depth)

    def test_balanced_example_is_unsettled(self):
        # hAhAhA admits a balanced fork: slot 1 unsettled even at the end.
        assert not is_k_settled("hAhAhA", 1, 5)

    def test_deep_settlement_after_honest_run(self):
        word = "hA" + "h" * 10
        assert is_k_settled(word, 1, 5)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            is_k_settled("hA", 0, 1)
        with pytest.raises(ValueError):
            is_k_settled("hA", 1, -1)

    def test_violation_slots_listing(self):
        word = "hAhAhA"
        violations = settlement_violation_slots(word, 2)
        assert violations
        for slot in violations:
            assert not is_k_settled(word, slot, 2)

    def test_settled_monotone_in_depth(self):
        """If s is k-settled it is k'-settled for every k' ≥ k."""
        for word in random_strings("hHA", 40, 5, 30, seed=61):
            for slot in range(1, len(word) + 1):
                settled_at = [
                    is_k_settled(word, slot, depth)
                    for depth in range(0, len(word) - slot + 2)
                ]
                for earlier, later in zip(settled_at, settled_at[1:]):
                    if earlier:
                        assert later


class TestUvpSufficiency:
    def test_uvp_certificate_implies_settlement(self):
        for word in random_strings("hHA", 60, 5, 30, seed=62):
            for slot in range(1, len(word) + 1):
                for depth in (1, 3, 5):
                    if settled_by_uvp(word, slot, depth - 1):
                        assert is_k_settled(word, slot, depth), (
                            word,
                            slot,
                            depth,
                        )

    def test_consistent_certificate_is_weaker_requirement(self):
        for word in random_strings("HA", 40, 10, 30, seed=63):
            for slot in range(1, len(word) + 1):
                if settled_by_uvp(word, slot, 5):
                    assert settled_by_uvp_consistent(word, slot, 5)


class TestSettlementTime:
    def test_immediate_settlement(self):
        assert settlement_time("hhh", 1) == 1

    def test_unsettled_returns_none(self):
        assert settlement_time("hAhAhA", 1) is None

    def test_settlement_time_is_tight(self):
        for word in random_strings("hHA", 40, 5, 25, seed=64):
            for slot in range(1, len(word) + 1):
                k = settlement_time(word, slot)
                max_observable = len(word) - slot + 1
                if k is None:
                    # unsettled at the deepest depth this word can witness
                    assert not is_k_settled(word, slot, max_observable)
                else:
                    assert is_k_settled(word, slot, k)
                    if k > 1:
                        assert not is_k_settled(word, slot, k - 1)


class TestSummaries:
    def test_longest_uvp_free_window(self):
        word = "AAAA"
        assert longest_settlement_free_window(word) == 4

    def test_summary_fields(self):
        summary = catalan_settlement_summary("hAhhA")
        assert summary["length"] == 5
        assert summary["honest_slots"] == 3
        assert summary["adversarial_slots"] == 2
        assert summary["catalan_slots"] >= summary["uvp_slots"]
