"""UVP and bottleneck property: Theorems 3, 4 and Lemma 1 cross-checks."""

import pytest

from repro.core.catalan import catalan_slots, is_catalan
from tests.core.enumeration import enumerate_forks
from repro.core.uvp import (
    bottleneck_holds_in_fork,
    has_bottleneck_property,
    has_uvp,
    has_uvp_by_margin,
    uvp_holds_in_fork,
    uvp_slots,
    uvp_slots_consistent_tiebreak,
)

from tests.conftest import all_strings, random_strings


class TestTheorem3EquivalentCharacterisations:
    def test_catalan_route_equals_margin_route_exhaustive(self):
        """Theorem 3 ⇔ Lemma 1, via two independent implementations."""
        for word in all_strings("hHA", 8, min_length=1):
            for slot in range(1, len(word) + 1):
                assert has_uvp(word, slot) == has_uvp_by_margin(word, slot), (
                    word,
                    slot,
                )

    def test_catalan_route_equals_margin_route_random(self):
        for word in random_strings("hHA", 60, 10, 60, seed=51):
            for slot in range(1, len(word) + 1):
                assert has_uvp(word, slot) == has_uvp_by_margin(word, slot)

    def test_uvp_requires_uniquely_honest(self):
        assert not has_uvp("H", 1)
        assert not has_uvp("A", 1)
        assert has_uvp("h", 1)

    def test_uvp_slots_listing(self):
        word = "hHhA"
        expected = [
            s for s in range(1, 5) if has_uvp(word, s)
        ]
        assert uvp_slots(word) == expected

    @pytest.mark.parametrize(
        "predicate", [has_uvp, has_uvp_by_margin, has_bottleneck_property]
    )
    def test_slots_outside_the_word_raise_index_error(self, predicate):
        for slot in (0, 3):
            with pytest.raises(IndexError, match="outside"):
                predicate("hh", slot)


class TestStructuralGroundTruth:
    def test_uvp_against_enumerated_forks(self):
        """Definition-level UVP over all capped forks equals Theorem 3.

        UVP quantifies over *all* forks (Definition 4), so the enumeration
        must not restrict to closed forks — an open fork with a trailing
        adversarial tine is a legitimate UVP counterexample.
        """
        for word in all_strings("hHA", 4, min_length=1):
            forks = enumerate_forks(word, 2, 2, closed_only=False)
            for slot in range(1, len(word) + 1):
                if word[slot - 1] != "h":
                    continue
                structural = all(uvp_holds_in_fork(f, slot) for f in forks)
                assert structural == has_uvp(word, slot), (word, slot)

    def test_bottleneck_against_enumerated_forks(self):
        """Bottleneck ⇔ Catalan for honest slots (Facts 2, 3)."""
        for word in all_strings("hHA", 4, min_length=1):
            forks = enumerate_forks(word, 2, 2, closed_only=False)
            for slot in range(1, len(word) + 1):
                if word[slot - 1] == "A":
                    continue
                structural = all(
                    bottleneck_holds_in_fork(f, slot) for f in forks
                )
                assert structural == is_catalan(word, slot), (word, slot)

    def test_multiply_honest_catalan_has_bottleneck_but_not_uvp(self):
        word = "HHH"
        assert has_bottleneck_property(word, 2)
        assert not has_uvp(word, 2)
        forks = enumerate_forks(word, 2, 2, closed_only=False)
        assert all(bottleneck_holds_in_fork(f, 2) for f in forks)
        # some fork places two vertices at slot 2, defeating uniqueness
        assert not all(uvp_holds_in_fork(f, 2) for f in forks)


class TestTheorem4ConsistentTieBreaking:
    def test_consecutive_catalan_gives_uvp(self):
        word = "HHHH"
        slots = uvp_slots_consistent_tiebreak(word)
        # slots 1,2,3 have a Catalan successor; slot 4 does not
        assert slots == [1, 2, 3]

    def test_no_unique_slots_needed(self):
        """Theorem 2's point: UVP slots exist even when p_h = 0."""
        for word in random_strings("HA", 30, 10, 40, seed=52):
            catalan = set(catalan_slots(word))
            for slot in uvp_slots_consistent_tiebreak(word):
                assert slot in catalan
                assert word[slot - 1] == "H" or slot + 1 in catalan

    def test_consistent_is_superset_of_standard(self):
        for word in random_strings("hHA", 40, 5, 40, seed=53):
            standard = set(uvp_slots(word))
            consistent = set(uvp_slots_consistent_tiebreak(word))
            assert standard <= consistent


class TestWindowImplications:
    def test_uvp_in_window_implies_settlement(self):
        """Eq. (1): a UVP slot in [s, s+k−1] settles slot s.

        The tighter window comes from the paper's own refinement via
        Fact 2 (proof of Theorem 1), matching our |y| ≥ k convention for
        the violation event (the Section 6.6 / Table 1 convention).
        """
        from repro.core.settlement import is_k_settled

        for word in random_strings("hHA", 50, 10, 40, seed=54):
            slots = set(uvp_slots(word))
            for s in range(1, len(word) + 1):
                for k in range(0, len(word) - s + 1):
                    window_end = min(s + max(k - 1, 0), len(word))
                    if any(s <= t <= window_end for t in slots):
                        assert is_k_settled(word, s, k), (word, s, k)
