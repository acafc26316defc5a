"""The optimal online adversary A* (Figure 4, Theorem 6)."""

import itertools

from repro.core.adversary_star import AdversaryStar, build_canonical_fork
from repro.core.margin import margin_of_fork, relative_margin
from repro.core.reach import max_reach, rho

from tests.conftest import random_strings


class TestCanonicality:
    def test_exhaustive_short_strings(self):
        """μ_x(F) = μ_x(y) for every prefix of every |w| ≤ 6 (Theorem 6)."""
        for length in range(0, 7):
            for symbols in itertools.product("hHA", repeat=length):
                word = "".join(symbols)
                fork = build_canonical_fork(word)
                assert max_reach(fork) == rho(word), word
                for prefix_length in range(length + 1):
                    assert margin_of_fork(
                        fork, prefix_length
                    ) == relative_margin(word, prefix_length), (
                        word,
                        prefix_length,
                    )

    def test_random_longer_strings(self):
        for word in random_strings("hHA", 30, 10, 24, seed=41):
            fork = build_canonical_fork(word)
            assert max_reach(fork) == rho(word), word
            for prefix_length in range(len(word) + 1):
                assert margin_of_fork(fork, prefix_length) == relative_margin(
                    word, prefix_length
                ), (word, prefix_length)


class TestForkValidity:
    def test_output_is_valid_and_closed(self):
        for word in random_strings("hHA", 40, 1, 30, seed=42):
            fork = build_canonical_fork(word)
            fork.validate()
            assert fork.is_closed(), word

    def test_word_tracking(self):
        adversary = AdversaryStar()
        adversary.advance("h")
        adversary.advance("A")
        assert adversary.word == "hA"

    def test_online_growth_preserves_prefix_forks(self):
        """The fork after n symbols is a prefix of the fork after n + 1:
        A* only appends vertices, and never moves one."""
        word = "hAHhAAHh"
        adversary = AdversaryStar()
        previous: list[tuple[int, int | None]] = []
        for symbol in word:
            adversary.advance(symbol)
            vertices = adversary.fork.vertices()
            position = {vertex: i for i, vertex in enumerate(vertices)}
            current = [(v.label, position.get(v.parent)) for v in vertices]
            assert current[: len(previous)] == previous
            previous = current


class TestStrategyShape:
    def test_adversarial_symbols_add_no_vertices(self):
        adversary = AdversaryStar()
        adversary.advance("h")
        before = len(adversary.fork)
        adversary.advance("A")
        assert len(adversary.fork) == before

    def test_multiply_honest_at_zero_reach_adds_two(self):
        """b = H with ρ(F) = 0 performs two conservative extensions."""
        adversary = AdversaryStar()
        adversary.advance("H")
        vertices = adversary.fork.vertices_with_label(1)
        assert len(vertices) == 2
        # both extensions are siblings of maximal depth
        assert {v.depth for v in vertices} == {1}

    def test_multiply_honest_at_positive_reach_adds_one(self):
        adversary = AdversaryStar()
        adversary.advance("A")
        adversary.advance("A")
        adversary.advance("H")
        assert len(adversary.fork.vertices_with_label(3)) == 1

    def test_uniquely_honest_always_adds_one(self):
        adversary = AdversaryStar()
        for symbol in "hhh":
            adversary.advance(symbol)
        for label in (1, 2, 3):
            assert len(adversary.fork.vertices_with_label(label)) == 1

    def test_extension_log_records_slots(self):
        adversary = AdversaryStar()
        for symbol in "hAH":
            adversary.advance(symbol)
        slots = [slot for slot, _uids in adversary.extension_log]
        assert slots == [1, 3]

    def test_conservative_extension_height_growth(self):
        """Each honest step raises the height by exactly one (Def. 15)."""
        adversary = AdversaryStar()
        height = 0
        for symbol in "hHAhAAHh":
            before = adversary.fork.height
            adversary.advance(symbol)
            after = adversary.fork.height
            if symbol == "A":
                assert after == before
            else:
                assert after == before + 1

    def test_zero_reach_empty_case(self):
        """After a long adversarial run no zero-reach tine exists; A* must
        still produce a canonical fork (extends a maximum-reach tine)."""
        word = "hAAAh"
        fork = build_canonical_fork(word)
        for prefix_length in range(len(word) + 1):
            assert margin_of_fork(fork, prefix_length) == relative_margin(
                word, prefix_length
            )
