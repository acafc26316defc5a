"""Heavy intervals and the interval oracle (Section 3.1)."""

import pytest

from repro.core.alphabet import is_hh_heavy
from repro.core.catalan import is_catalan
from repro.core.intervals import IntervalOracle

from tests.conftest import all_strings


def a_heavy_intervals_containing(word: str, slot: int) -> list[tuple[int, int]]:
    """Every A-heavy ``[i, j]`` with ``i ≤ slot ≤ j``, by a quadratic scan."""
    oracle = IntervalOracle(word)
    return [
        (start, stop)
        for start in range(1, slot + 1)
        for stop in range(slot, len(word) + 1)
        if oracle.is_a_heavy(start, stop)
    ]


class TestIntervalOracle:
    def test_walk_values(self):
        oracle = IntervalOracle("hAAh")
        assert [oracle.walk(t) for t in range(5)] == [0, -1, 0, 1, 0]

    def test_single_slot_intervals(self):
        oracle = IntervalOracle("hA")
        assert oracle.is_hh_heavy(1, 1)
        assert oracle.is_a_heavy(2, 2)

    def test_counts(self):
        oracle = IntervalOracle("hHA.h")
        assert oracle.honest_count(1, 5) == 3
        assert oracle.adversarial_count(1, 5) == 1
        assert oracle.empty_count(1, 5) == 1

    def test_oracle_matches_direct_counting(self):
        for word in all_strings("hHA", 5, min_length=1):
            oracle = IntervalOracle(word)
            for start in range(1, len(word) + 1):
                for stop in range(start, len(word) + 1):
                    expected = is_hh_heavy(word[start - 1 : stop])
                    assert oracle.is_hh_heavy(start, stop) == expected

    def test_out_of_range_rejected(self):
        oracle = IntervalOracle("hA")
        with pytest.raises(IndexError):
            oracle.is_hh_heavy(0, 1)
        with pytest.raises(IndexError):
            oracle.is_hh_heavy(1, 3)
        with pytest.raises(IndexError):
            oracle.is_hh_heavy(2, 1)

    def test_empty_slots_are_neutral(self):
        oracle = IntervalOracle("h..A")
        # one honest vs one adversarial: tie, A-heavy
        assert oracle.is_a_heavy(1, 4)
        assert oracle.is_hh_heavy(1, 3)


class TestAHeavyIntervals:
    def test_all_a_heavy_intervals_simple(self):
        oracle = IntervalOracle("hA")
        assert oracle.is_a_heavy(2, 2)
        assert oracle.is_a_heavy(1, 2)  # tie counts as A-heavy
        assert not oracle.is_a_heavy(1, 1)

    def test_maximal_interval_contains_slot(self):
        """A non-Catalan slot lies in an A-heavy interval that starts or
        ends at it: the left or right Catalan condition fails there."""
        assert a_heavy_intervals_containing("hAAh", 2)
        for word in all_strings("hHA", 6, min_length=1):
            for slot in range(1, len(word) + 1):
                if is_catalan(word, slot):
                    continue
                heavy = a_heavy_intervals_containing(word, slot)
                assert any(slot in interval for interval in heavy), word

    def test_maximal_interval_none_when_slot_shielded(self):
        """Catalan slots are exactly those no A-heavy interval contains."""
        assert a_heavy_intervals_containing("hhh", 2) == []
        for word in all_strings("hHA", 6, min_length=1):
            for slot in range(1, len(word) + 1):
                shielded = not a_heavy_intervals_containing(word, slot)
                assert shielded == is_catalan(word, slot), (word, slot)

    def test_maximal_interval_is_maximal(self):
        """A widest A-heavy interval around a slot is a tie between A and
        honest slots, and honest slots bound it, unless it is the whole
        word (the extension step of Fact 3)."""
        for word in all_strings("hHA", 6, min_length=1):
            oracle = IntervalOracle(word)
            for slot in range(1, len(word) + 1):
                heavy = a_heavy_intervals_containing(word, slot)
                if not heavy:
                    continue
                start, stop = max(heavy, key=lambda iv: iv[1] - iv[0])
                if stop < len(word):
                    assert oracle.adversarial_minus_honest(start, stop) == 0
                    assert word[stop] != "A", (word, slot)
                if start > 1:
                    assert oracle.adversarial_minus_honest(start, stop) == 0
                    assert word[start - 2] != "A", (word, slot)
