"""Stake-weighted leader election (the lottery behind the leader schedule).

Ouroboros Praos elects each party independently per slot with probability
``φ_f(σ) = 1 − (1 − f)^σ`` where σ is the party's relative stake and
``f`` the active-slot coefficient.  Independent per-party coins make
*concurrent* leaders possible — exactly the multiply honest slots whose
effect the paper analyses.  This module provides:

* :class:`StakeDistribution` — named parties with stakes and corruption
  flags;
* :class:`VrfLeaderElection` — the Praos lottery via the ideal VRF,
  materialised per trial as a leader table: one
  :meth:`~repro.protocol.crypto.IdealVrf.evaluate_below` pass per party
  over all slots, bit-identical to evaluating each (party, slot) alone;
* :class:`LeaderSchedule` — a materialised slot→leaders map with its
  induced characteristic string;
* exact formulas for the induced symbol probabilities ``(p_h, p_H, p_A,
  p_⊥)`` given stakes, used to connect protocol parameters to the
  analytical machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.alphabet import ADVERSARIAL, EMPTY, HONEST_MULTI, HONEST_UNIQUE
from repro.core.distributions import SlotProbabilities
from repro.protocol.crypto import IdealVrf, KeyPair, unit_cutoff


@dataclass(frozen=True)
class Party:
    """One protocol participant."""

    name: str
    stake: float
    corrupted: bool = False


class StakeDistribution:
    """A fixed stake distribution over named parties."""

    def __init__(self, parties: list[Party]) -> None:
        if not parties:
            raise ValueError("at least one party is required")
        total = sum(party.stake for party in parties)
        if total <= 0:
            raise ValueError("total stake must be positive")
        names = [party.name for party in parties]
        if len(set(names)) != len(names):
            raise ValueError("party names must be unique")
        self.parties = list(parties)
        self.total_stake = total

    def relative_stake(self, party: Party) -> float:
        """σ — the party's fraction of total stake."""
        return party.stake / self.total_stake

    @staticmethod
    def uniform(
        honest_count: int, corrupted_count: int, stake: float = 1.0
    ) -> "StakeDistribution":
        """Equal-stake distribution with the given party counts."""
        parties = [
            Party(f"honest-{i}", stake) for i in range(honest_count)
        ] + [
            Party(f"corrupt-{i}", stake, corrupted=True)
            for i in range(corrupted_count)
        ]
        return StakeDistribution(parties)


def phi(activity: float, relative_stake: float) -> float:
    """The Praos election probability ``φ_f(σ) = 1 − (1 − f)^σ``.

    Independent aggregation: a coalition's success probability depends
    only on its combined stake, which is what makes the analysis robust
    to how the adversary splits its stake across keys.
    """
    if not 0 < activity <= 1:
        raise ValueError(f"activity must lie in (0, 1], got {activity}")
    if not 0 <= relative_stake <= 1:
        raise ValueError(f"relative stake must lie in [0, 1], got {relative_stake}")
    return 1.0 - (1.0 - activity) ** relative_stake


class VrfLeaderElection:
    """The Praos lottery: party leads slot t iff ``VRF(sk, t) < φ_f(σ)``."""

    def __init__(
        self,
        stakes: StakeDistribution,
        activity: float,
        vrf: IdealVrf | None = None,
        randomness: str = "epoch-0",
    ) -> None:
        self.stakes = stakes
        self.activity = activity
        self.vrf = vrf if vrf is not None else IdealVrf()
        self.randomness = randomness
        self._keys: dict[str, KeyPair] = {
            party.name: self.vrf.generate_keypair() for party in stakes.parties
        }
        #: (party, slot) → eligibility result.  :meth:`schedule` stores
        #: every winner here, so minting and the adversary's lookups never
        #: re-run the VRF.  Losers are not stored (at small per-party
        #: stakes they are nearly the whole table, and nobody asks
        #: again); a later query for one falls back to
        #: :meth:`eligibility`'s own evaluation, cached as well.
        self._eligibility_cache: dict[tuple[str, int], tuple[bool, float, str]] = {}

    def keypair(self, party: Party) -> KeyPair:
        """The party's VRF key pair."""
        return self._keys[party.name]

    def vrf_input(self, slot: int) -> str:
        """The VRF input of ``slot`` under this election's randomness."""
        return f"{self.randomness}|slot-{slot}"

    def eligibility(self, party: Party, slot: int) -> tuple[bool, float, str]:
        """``(is_leader, vrf_value, proof)`` for one party and slot."""
        key = (party.name, slot)
        cached = self._eligibility_cache.get(key)
        if cached is not None:
            return cached
        value, proof = self.vrf.evaluate(
            self._keys[party.name], self.vrf_input(slot)
        )
        threshold = phi(self.activity, self.stakes.relative_stake(party))
        result = (value < threshold, value, proof)
        self._eligibility_cache[key] = result
        return result

    def leaders(self, slot: int) -> list[Party]:
        """All parties elected in ``slot`` (possibly none or several)."""
        return [
            party
            for party in self.stakes.parties
            if self.eligibility(party, slot)[0]
        ]

    def schedule(self, total_slots: int) -> "LeaderSchedule":
        """Materialise the slot→leaders map for slots 1..total_slots.

        Each slot's VRF input is encoded once; one
        :meth:`IdealVrf.evaluate_below` pass per party then compares
        every digest's leading 64 bits with the party's
        :func:`~repro.protocol.crypto.unit_cutoff`, the exact integer
        form of ``value < φ_f(σ)``.  Only the winners' values and
        proofs are derived; they land in the eligibility cache, so the
        later minting and adversary lookups do not touch the VRF again.
        The table equals per-slot :meth:`eligibility` calls: same
        values, same order of leaders within a slot.
        """
        encoded = self.vrf.encode_inputs(
            self.vrf_input(slot) for slot in range(1, total_slots + 1)
        )
        leaders_by_slot: dict[int, list[Party]] = {
            slot: [] for slot in range(1, total_slots + 1)
        }
        cache = self._eligibility_cache
        for party in self.stakes.parties:
            threshold = phi(self.activity, self.stakes.relative_stake(party))
            winners = self.vrf.evaluate_below(
                self._keys[party.name], encoded, unit_cutoff(threshold)
            )
            for index, value, digest in winners:
                cache[(party.name, index + 1)] = (True, value, digest.hex())
                leaders_by_slot[index + 1].append(party)
        return LeaderSchedule(leaders_by_slot)


class LeaderSchedule:
    """A materialised leader schedule and its characteristic string."""

    def __init__(self, leaders_by_slot: dict[int, list[Party]]) -> None:
        self.leaders_by_slot = leaders_by_slot

    def __len__(self) -> int:
        return len(self.leaders_by_slot)

    def leaders(self, slot: int) -> list[Party]:
        """Leaders of ``slot`` (empty list for an empty slot)."""
        return self.leaders_by_slot.get(slot, [])

    def symbol(self, slot: int) -> str:
        """The slot's characteristic symbol per Definitions 1 and 20."""
        leaders = self.leaders(slot)
        if not leaders:
            return EMPTY
        if any(party.corrupted for party in leaders):
            return ADVERSARIAL
        return HONEST_UNIQUE if len(leaders) == 1 else HONEST_MULTI

    def characteristic_string(self) -> str:
        """The execution's characteristic string ``w``."""
        return "".join(
            self.symbol(slot) for slot in sorted(self.leaders_by_slot)
        )


def induced_slot_probabilities(
    stakes: StakeDistribution, activity: float
) -> SlotProbabilities:
    """Exact ``(p_h, p_H, p_A, p_⊥)`` induced by independent VRF lotteries.

    With per-party success ``φ_f(σ_i)`` independent across parties:

    * ``p_⊥ = Π_i (1 − φ_i)`` — nobody elected; by the φ aggregation
      property this equals ``(1 − f)`` exactly;
    * ``p_A = 1 − Π_{i corrupt} (1 − φ_i)`` — some corrupted leader;
    * ``p_h = (Π_corrupt (1−φ)) · Σ_{j honest} φ_j Π_{i honest, i≠j} (1−φ_i)``;
    * ``p_H = 1 − p_⊥ − p_A − p_h``.
    """
    honest = [p for p in stakes.parties if not p.corrupted]
    corrupt = [p for p in stakes.parties if p.corrupted]

    def miss(party: Party) -> float:
        return 1.0 - phi(activity, stakes.relative_stake(party))

    none_at_all = math.prod(miss(p) for p in stakes.parties)
    no_corrupt = math.prod(miss(p) for p in corrupt)
    p_adversarial = 1.0 - no_corrupt

    no_honest = math.prod(miss(p) for p in honest)
    exactly_one_honest = 0.0
    for j in honest:
        others = math.prod(miss(p) for p in honest if p is not j)
        exactly_one_honest += (1.0 - miss(j)) * others
    p_unique = no_corrupt * exactly_one_honest
    p_empty = none_at_all
    p_multi = 1.0 - p_empty - p_adversarial - p_unique
    return SlotProbabilities(p_unique, p_multi, p_adversarial, p_empty)
