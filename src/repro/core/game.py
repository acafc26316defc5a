"""The (D, T; s, k)-settlement game of Section 2.2, played move by move.

The boxed game of the paper: a characteristic string is drawn from the
leader-election distribution and revealed slot by slot; the *challenger*
deterministically plays the honest participants (new honest vertices go
on maximum-length tines), while the *adversary* chooses, for each slot,

* how many honest vertices a multiply honest slot gets (``k ≥ 1``),
* which maximum-length tine each lands on (tie-breaking),
* arbitrary adversarial vertices for ``A`` slots, and
* arbitrary augmentations with already-available adversarial labels.

The adversary wins when slot ``s`` is not ``k``-settled in some fork it
produced.  :class:`SettlementGameArena` enforces the challenger's rules;
strategies implement :class:`GameAdversary`; the ones the game is played
with (the honest baseline, a random legal attacker and ``A*``, optimal by
Theorem 6) are in ``tests/core/test_game.py``.

The arena cross-checks every produced fork against the axioms, making it
also a fuzzing harness for the fork machinery.
"""

from __future__ import annotations

from repro.core.alphabet import (
    ADVERSARIAL,
    HONEST_MULTI,
    HONEST_UNIQUE,
)
from repro.core.balanced import is_x_balanced
from repro.core.forks import Fork, Vertex
from repro.core.margin import relative_margin


class GameAdversary:
    """Interface for settlement-game strategies."""

    def start(self, arena: "SettlementGameArena") -> None:
        """Called once before the first slot."""

    def honest_slot(
        self, arena: "SettlementGameArena", slot: int, multiply: bool
    ) -> list[Vertex]:
        """Choose the parent tine(s) for the slot's honest vertices.

        Must return vertices of maximal depth (the challenger verifies);
        for a uniquely honest slot exactly one, for a multiply honest
        slot one or more (duplicates allowed — sibling vertices).
        """
        raise NotImplementedError

    def adversarial_slot(
        self, arena: "SettlementGameArena", slot: int
    ) -> list[tuple[Vertex, int]]:
        """Arbitrary placements ``(parent, label)`` with ``label = slot``."""
        return []

    def augment(
        self, arena: "SettlementGameArena", slot: int
    ) -> list[tuple[Vertex, int]]:
        """Arbitrary post-slot placements using adversarial labels ≤ slot."""
        return []


class SettlementGameArena:
    """Challenger-side rules of the settlement game."""

    def __init__(self, word: str, adversary: GameAdversary) -> None:
        self.word = word
        self.fork = Fork("")
        self.adversary = adversary

    def play(self) -> Fork:
        """Run the whole game and return the final fork."""
        self.adversary.start(self)
        for slot, symbol in enumerate(self.word, start=1):
            self.fork.extend_word(symbol)
            if symbol == ADVERSARIAL:
                placements = self.adversary.adversarial_slot(self, slot)
                for parent, label in placements:
                    if label != slot:
                        raise ValueError("adversarial label must equal slot")
                    self.fork.add_vertex(parent, label)
            else:
                height = self.fork.height
                parents = self.adversary.honest_slot(
                    self, slot, symbol == HONEST_MULTI
                )
                if symbol == HONEST_UNIQUE and len(parents) != 1:
                    raise ValueError("uniquely honest slot gets one vertex")
                if not parents:
                    raise ValueError("honest slot needs at least one vertex")
                for parent in parents:
                    if parent.depth != height:
                        raise ValueError(
                            "honest vertices extend maximum-length tines"
                        )
                    self.fork.add_vertex(parent, slot)
            for parent, label in self.adversary.augment(self, slot):
                if self.word[label - 1] != ADVERSARIAL:
                    raise ValueError("augmentation uses adversarial labels")
                if label > slot:
                    raise ValueError("augmentation cannot use future labels")
                self.fork.add_vertex(parent, label)
        return self.fork

    def adversary_wins(self, target_slot: int, depth: int) -> bool:
        """Is ``target_slot`` left unsettled at depth ``depth``?

        Decided on the final fork: the adversary wins when it produced an
        x-balanced fork for ``x = w[:target_slot − 1]`` — i.e. two
        maximum-length tines diverging before the target — or when its
        remaining reserve could still create one (margin ≥ 0, Fact 6).
        """
        if len(self.word) < target_slot + depth:
            raise ValueError("string too short for this (s, k)")
        return is_x_balanced(self.fork, target_slot - 1) or (
            relative_margin(self.word, target_slot - 1) >= 0
            and self._fork_margin_nonnegative(target_slot - 1)
        )

    def _fork_margin_nonnegative(self, prefix_length: int) -> bool:
        from repro.core.margin import margin_of_fork

        return margin_of_fork(self.fork, prefix_length) >= 0


def play_settlement_game(
    word: str,
    adversary: GameAdversary,
    target_slot: int,
    depth: int,
) -> tuple[bool, Fork]:
    """Run one game; return (adversary wins, final fork)."""
    arena = SettlementGameArena(word, adversary)
    fork = arena.play()
    return arena.adversary_wins(target_slot, depth), fork
