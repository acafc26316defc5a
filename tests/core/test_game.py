"""The explicit settlement game of Section 2.2 (arena + strategies)."""

import pytest

from repro.core.game import (
    CanonicalForker,
    LongestChainSycophant,
    RandomForker,
    SettlementGameArena,
    play_settlement_game,
)
from repro.core.margin import margin_of_fork, relative_margin
from repro.core.reach import max_reach, rho

from tests.conftest import random_strings


class TestArenaRules:
    def test_honest_only_game_builds_a_chain(self):
        won, fork = play_settlement_game(
            "hhhh", LongestChainSycophant(), 1, 2
        )
        assert not won
        assert fork.height == 4
        fork.validate()

    def test_unique_honest_slot_must_get_one_vertex(self):
        class Cheater(LongestChainSycophant):
            def honest_slot(self, arena, slot, multiply):
                return [arena.longest_vertices()[0]] * 2

        arena = SettlementGameArena("h", Cheater())
        with pytest.raises(ValueError):
            arena.play()

    def test_honest_vertices_must_extend_longest_tines(self):
        class Laggard(LongestChainSycophant):
            def honest_slot(self, arena, slot, multiply):
                return [arena.fork.root]

        arena = SettlementGameArena("hh", Laggard())
        with pytest.raises(ValueError):
            arena.play()

    def test_augmentation_cannot_use_future_labels(self):
        class TimeTraveller(LongestChainSycophant):
            def augment(self, arena, slot):
                if slot == 1 and len(arena.word) > 1:
                    return [(arena.fork.root, 2)]
                return []

        arena = SettlementGameArena("hA", TimeTraveller())
        with pytest.raises(ValueError):
            arena.play()

    def test_game_too_short_for_parameters(self):
        arena = SettlementGameArena("hh", LongestChainSycophant())
        arena.play()
        with pytest.raises(ValueError):
            arena.adversary_wins(2, 5)


class TestStrategies:
    def test_random_forker_produces_valid_forks(self, rng):
        for word in random_strings("hHA", 20, 4, 14, seed=91):
            arena = SettlementGameArena(word, RandomForker(rng))
            fork = arena.play()
            fork.validate()

    def test_sycophant_never_wins_on_honest_strings(self):
        for word in random_strings("hH", 10, 6, 12, seed=92):
            won, _fork = play_settlement_game(
                word, LongestChainSycophant(), 2, 3
            )
            assert not won

    def test_canonical_forker_reproduces_a_star(self):
        """The game-embedded A* attains ρ(w) and μ_x(y) in the arena fork."""
        for word in random_strings("hHA", 15, 4, 12, seed=93):
            arena = SettlementGameArena(word, CanonicalForker())
            fork = arena.play()
            fork.validate()
            assert max_reach(fork) == rho(word), word
            for prefix_length in range(len(word) + 1):
                assert margin_of_fork(fork, prefix_length) == relative_margin(
                    word, prefix_length
                ), (word, prefix_length)

    def test_canonical_forker_wins_exactly_when_margin_nonnegative(self):
        for word in random_strings("hHA", 20, 6, 12, seed=94):
            target, depth = 2, 3
            if len(word) < target + depth:
                continue
            won, _fork = play_settlement_game(
                word, CanonicalForker(), target, depth
            )
            expected = relative_margin(word, target - 1) >= 0
            assert won == expected, word

    def test_random_forker_never_beats_canonical(self, rng):
        """Monte-Carlo: the random attacker's win rate ≤ the optimum's."""
        words = random_strings("hHA", 40, 8, 8, seed=95)
        target, depth = 2, 4
        random_wins = canonical_wins = 0
        for word in words:
            won_r, _ = play_settlement_game(
                word, RandomForker(rng), target, depth
            )
            won_c, _ = play_settlement_game(
                word, CanonicalForker(), target, depth
            )
            random_wins += won_r
            canonical_wins += won_c
            # pointwise: if random wins the canonical must win too
            assert not won_r or won_c, word
        assert canonical_wins >= random_wins
