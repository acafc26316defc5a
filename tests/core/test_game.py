"""The explicit settlement game of Section 2.2 (arena + strategies)."""

import random

import pytest

from repro.core.adversary_star import AdversaryStar
from repro.core.forks import Vertex
from repro.core.game import (
    GameAdversary,
    SettlementGameArena,
    play_settlement_game,
)
from repro.core.margin import margin_of_fork, relative_margin
from repro.core.reach import max_reach, rho

from tests.conftest import random_strings


def longest_vertices(arena: SettlementGameArena) -> list[Vertex]:
    """The fork's maximum-depth vertices: the legal honest parents."""
    height = arena.fork.height
    return [v for v in arena.fork.vertices() if v.depth == height]


class LongestChainSycophant(GameAdversary):
    """Extends the first longest tine, mints nothing — the honest world."""

    def honest_slot(self, arena, slot, multiply):
        return [longest_vertices(arena)[0]]


class RandomForker(GameAdversary):
    """Random legal play: a fuzzing baseline, far from optimal."""

    def __init__(self, rng: random.Random, multi_cap: int = 2) -> None:
        self.rng = rng
        self.multi_cap = multi_cap

    def honest_slot(self, arena, slot, multiply):
        options = longest_vertices(arena)
        count = self.rng.randint(1, self.multi_cap) if multiply else 1
        return [self.rng.choice(options) for _ in range(count)]

    def adversarial_slot(self, arena, slot):
        placements = []
        if self.rng.random() < 0.7:
            candidates = [
                v for v in arena.fork.vertices() if v.label < slot
            ]
            placements.append((self.rng.choice(candidates), slot))
        return placements


class CanonicalForker(GameAdversary):
    """Plays the moves of ``A*``: optimal against every slot at once.

    Internally runs :class:`~repro.core.adversary_star.AdversaryStar` on
    the same symbols and mirrors its vertex placements into the arena's
    fork (conservative extensions become an augmentation of adversarial
    padding followed by the honest vertex on the padded tine).
    """

    def start(self, arena) -> None:
        self._star = AdversaryStar()
        self._mirror: dict[int, Vertex] = {
            self._star.fork.root.uid: arena.fork.root
        }
        self._unmapped: list[Vertex] = []

    def honest_slot(self, arena, slot, multiply):
        # Advance A*; its conservative paddings appear as pre-placed
        # adversarial vertices, so the honest vertices land on tines that
        # are maximal by construction.
        self._star.advance(arena.word[slot - 1])
        star_fork = self._star.fork
        parents = []
        for vertex in star_fork.vertices():
            if vertex.label != slot or vertex.uid in self._mirror:
                continue
            chain = [
                v
                for v in vertex.path_from_root()
                if v.uid not in self._mirror
            ]
            for missing in chain[:-1]:
                parent = self._mirror[missing.parent.uid]
                self._mirror[missing.uid] = arena.fork.add_vertex(
                    parent, missing.label
                )
            parents.append(self._mirror[vertex.parent.uid])
        # the arena will now create the honest vertices; remember which A*
        # vertices they correspond to so augment() can reconcile the maps
        self._unmapped = [
            v
            for v in star_fork.vertices_with_label(slot)
            if v.uid not in self._mirror
        ]
        return parents

    def adversarial_slot(self, arena, slot):
        self._star.advance(arena.word[slot - 1])
        return []

    def augment(self, arena, slot):
        # reconcile the honest vertices the arena just added
        star_fork = self._star.fork
        if getattr(self, "_unmapped", None):
            arena_new = [
                v
                for v in arena.fork.vertices()
                if v.label == slot and v.uid not in {
                    m.uid for m in self._mirror.values()
                }
            ]
            for star_vertex, arena_vertex in zip(self._unmapped, arena_new):
                self._mirror[star_vertex.uid] = arena_vertex
            self._unmapped = []
        return []


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
                return [longest_vertices(arena)[0]] * 2

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
