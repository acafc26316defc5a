"""The reduction map ρ_Δ (Definition 22) and Proposition 4."""

import collections

import pytest

from repro.core.alphabet import string_leq
from repro.core.distributions import (
    sample_characteristic_string,
    semi_synchronous_condition,
)
from repro.delta.reduction import (
    MODE_EMPTY_RUN,
    MODE_QUIET_WINDOW,
    reduce_string,
    reduced_epsilon,
    reduced_probabilities,
    reduction_beta,
    slot_bijection,
)

from tests.conftest import all_strings


class TestReduceString:
    def test_delta_zero_drops_empty_slots_only(self):
        assert reduce_string("h.H.A", 0) == "hHA"
        assert reduce_string("h.H.A", 0, MODE_QUIET_WINDOW) == "hHA"

    def test_isolated_honest_slot_survives(self):
        assert reduce_string("h..h..", 2) == "hh"

    def test_crowded_honest_slot_demoted(self):
        assert reduce_string("hh", 1) == "AA"  # trailing distortion too
        assert reduce_string("h.h..", 1) == "hh"

    def test_trailing_distortion(self):
        # the final honest slot never has Δ successors in view
        assert reduce_string("..h", 2) == "A"

    def test_adversarial_slots_pass_through(self):
        assert reduce_string("A.A", 5) == "AA"

    def test_mode_difference(self):
        # 'A' inside the window: kept by quiet-window, demoted by empty-run
        word = "h.Ah.."
        assert reduce_string(word, 2, MODE_QUIET_WINDOW)[0] == "h"
        assert reduce_string(word, 2, MODE_EMPTY_RUN)[0] == "A"

    def test_empty_run_dominates_quiet_window(self):
        """The proof's semantics is the more adversarial of the two."""
        import random

        generator = random.Random(5)
        for _ in range(60):
            word = "".join(
                generator.choice("hHA...") for _ in range(40)
            )
            for delta in (0, 1, 3):
                strict = reduce_string(word, delta, MODE_EMPTY_RUN)
                loose = reduce_string(word, delta, MODE_QUIET_WINDOW)
                assert string_leq(loose, strict)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            reduce_string("h", 1, "bogus")

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            reduce_string("h", -1)


class TestBijection:
    def test_bijection_skips_empty_slots(self):
        mapping = slot_bijection("h.A.H")
        assert mapping == {1: 1, 3: 2, 5: 3}

    def test_bijection_is_increasing(self):
        mapping = slot_bijection("hA..hH.A")
        items = sorted(mapping.items())
        values = [v for _, v in items]
        assert values == sorted(values)
        assert len(set(values)) == len(values)

    def test_undistorted_length(self):
        """ρ_Δ keeps one symbol per non-empty slot; a slot among the last
        Δ has no full quiet window, so its image is A.  This is the
        end-of-string effect that Proposition 4 leaves out of the i.i.d.
        prefix of length |ρ_Δ(w)| − Δ."""
        assert reduce_string("h.h.h.", 1) == "hhh"
        assert reduce_string("h.h.h", 1) == "hhA"
        for word in all_strings("hHA.", 5):
            mapping = slot_bijection(word)
            for delta in range(4):
                reduced = reduce_string(word, delta)
                assert len(reduced) == len(mapping)
                for source, image in mapping.items():
                    if source > len(word) - delta:
                        assert reduced[image - 1] == "A", (word, delta)


class TestProposition4:
    def test_beta_formula(self):
        assert reduction_beta(0.1, 3) == pytest.approx(0.9**3)

    def test_reduced_probabilities_formulas(self):
        probs = semi_synchronous_condition(0.2, 0.05, 0.10)
        reduced = reduced_probabilities(probs, 3)
        beta = 0.8**3
        assert reduced.p_unique == pytest.approx(0.10 * beta / 0.2)
        assert reduced.p_multi == pytest.approx(0.05 * beta / 0.2)
        assert reduced.p_adversarial == pytest.approx(
            1 - beta + 0.05 * beta / 0.2
        )
        assert reduced.p_empty == 0.0

    def test_full_activity_with_delay_rejected(self):
        probs = semi_synchronous_condition(1.0, 0.1, 0.5)
        with pytest.raises(ValueError):
            reduced_probabilities(probs, 2)

    def test_reduced_epsilon_decreases_with_delta(self):
        probs = semi_synchronous_condition(0.1, 0.01, 0.05)
        epsilons = [reduced_epsilon(probs, d) for d in (0, 1, 2, 4, 8)]
        assert epsilons == sorted(epsilons, reverse=True)

    def test_empirical_iid_frequencies(self, rng):
        """Sampled reduced strings match the Proposition 4 law."""
        probs = semi_synchronous_condition(0.2, 0.05, 0.10)
        delta = 4
        reduced = reduced_probabilities(probs, delta)
        counts = collections.Counter()
        total = 0
        for _ in range(300):
            word = sample_characteristic_string(probs, 400, rng)
            image = reduce_string(word, delta)
            image = image[: max(len(image) - delta, 0)]
            counts.update(image)
            total += len(image)
        assert abs(counts["h"] / total - reduced.p_unique) < 0.012
        assert abs(counts["H"] / total - reduced.p_multi) < 0.012
        assert abs(counts["A"] / total - reduced.p_adversarial) < 0.012

    def test_empirical_independence_of_adjacent_symbols(self, rng):
        """Adjacent reduced symbols are uncorrelated under empty-run mode.

        (Under the printed quiet-window rule they are not — the reason
        the proof uses the empty-run semantics.)
        """
        probs = semi_synchronous_condition(0.25, 0.05, 0.10)
        delta = 2
        reduced = reduced_probabilities(probs, delta)
        pairs = 0
        adjacent_hh = 0
        for _ in range(300):
            word = sample_characteristic_string(probs, 400, rng)
            image = reduce_string(word, delta)
            image = image[: max(len(image) - delta, 0)]
            for a, b in zip(image, image[1:]):
                pairs += 1
                if a != "A" and b != "A":
                    adjacent_hh += 1
        expected = (1 - reduced.p_adversarial) ** 2
        assert abs(adjacent_hh / pairs - expected) < 0.015
