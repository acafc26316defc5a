"""(k, Δ)-settlement and the Theorem 7 machinery (Section 8)."""

import pytest

from repro.core.distributions import semi_synchronous_condition
from repro.delta.settlement import (
    is_k_delta_settled,
    lemma2_settles,
    theorem7_error_bound,
)


class TestDecisionProcedure:
    def test_empty_slot_vacuously_settled(self):
        assert is_k_delta_settled("h.h", 2, 1, 1)

    def test_all_honest_sparse_string_settles(self):
        word = "h..h..h..h..h..h.."
        assert is_k_delta_settled(word, 1, 3, 1)

    def test_dense_honest_with_delay_may_not_settle(self):
        """Adjacent honest slots under delay reduce to adversarial symbols,
        so even an honest-only execution can fail to settle quickly."""
        word = "hhhhhhhh"
        assert not is_k_delta_settled(word, 1, 3, 2)

    def test_delta_zero_matches_synchronous(self):
        from repro.core.settlement import is_k_settled

        words = ["hAhhA", "hhAAhh", "AhAhAh"]
        for word in words:
            for slot in range(1, len(word) + 1):
                for depth in (1, 2, 3):
                    assert is_k_delta_settled(
                        word, slot, depth, 0
                    ) == is_k_settled(word, slot, depth), (word, slot, depth)

    def test_slot_out_of_range(self):
        with pytest.raises(ValueError):
            is_k_delta_settled("h.h", 4, 1, 1)


class TestLemma2:
    def test_certificate_implies_settlement(self):
        """Lemma 2's sufficient condition never contradicts the margin rule."""
        import random

        generator = random.Random(17)
        checked = 0
        for _ in range(300):
            length = generator.randint(10, 30)
            word = "".join(generator.choice("hA...") for _ in range(length))
            delta = generator.randint(0, 2)
            for slot in range(1, length + 1):
                if word[slot - 1] == ".":
                    continue
                for depth in (2, 4):
                    if lemma2_settles(word, slot, depth, delta):
                        checked += 1
                        assert is_k_delta_settled(word, slot, depth, delta), (
                            word,
                            slot,
                            depth,
                            delta,
                        )
        assert checked > 10  # the certificate fired often enough to matter


class TestTheorem7:
    def test_bound_in_unit_interval(self):
        probs = semi_synchronous_condition(0.05, 0.005, 0.04)
        for depth in (50, 200, 600):
            value = theorem7_error_bound(probs, depth, 2)
            assert 0.0 <= value <= 1.0

    def test_bound_decreases_with_depth(self):
        probs = semi_synchronous_condition(0.05, 0.005, 0.04)
        values = [
            theorem7_error_bound(probs, depth, 2)
            for depth in (100, 300, 900)
        ]
        assert values == sorted(values, reverse=True)

    def test_bound_dominates_empirical_rate(self):
        from repro.engine import run_scenario

        probs = semi_synchronous_condition(0.08, 0.004, 0.06)
        slot, depth, delta = 40, 60, 2
        rate = run_scenario(
            "delta-synchronous",
            300,
            0xC0FFEE,
            probabilities=probs,
            depth=depth,
            delta=delta,
            target_slot=slot,
            total_length=200,
        ).value
        bound = theorem7_error_bound(probs, depth, delta)
        assert bound >= rate - 0.05
