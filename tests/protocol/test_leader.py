"""Stake-weighted leader election and induced symbol probabilities."""

import math

import numpy as np
import pytest

from repro.protocol.crypto import IdealVrf, _digest_to_unit, unit_cutoff
from repro.protocol.leader import (
    LeaderSchedule,
    Party,
    StakeDistribution,
    VrfLeaderElection,
    induced_slot_probabilities,
    phi,
)


class TestStakeDistribution:
    def test_relative_stake(self):
        stakes = StakeDistribution(
            [Party("a", 3.0), Party("b", 1.0, corrupted=True)]
        )
        assert stakes.relative_stake(stakes.parties[0]) == pytest.approx(0.75)
        assert stakes.relative_stake(stakes.parties[1]) == pytest.approx(0.25)

    def test_uniform_builder(self):
        stakes = StakeDistribution.uniform(3, 2)
        assert len(stakes.parties) == 5
        corrupted = [p for p in stakes.parties if p.corrupted]
        assert len(corrupted) == 2
        assert all(
            stakes.relative_stake(p) == pytest.approx(0.2)
            for p in stakes.parties
        )

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            StakeDistribution([Party("a", 1.0), Party("a", 2.0)])

    def test_zero_total_stake_rejected(self):
        with pytest.raises(ValueError):
            StakeDistribution([Party("a", 0.0)])


class TestPhi:
    def test_full_stake_gets_activity(self):
        assert phi(0.3, 1.0) == pytest.approx(0.3)

    def test_zero_stake_never_leads(self):
        assert phi(0.3, 0.0) == 0.0

    def test_independent_aggregation(self):
        """1 − φ(σ₁ + σ₂) = (1 − φ(σ₁))(1 − φ(σ₂)) — Praos's key identity."""
        f = 0.2
        lhs = 1 - phi(f, 0.3 + 0.5)
        rhs = (1 - phi(f, 0.3)) * (1 - phi(f, 0.5))
        assert lhs == pytest.approx(rhs)


class TestElection:
    def test_leaders_deterministic(self):
        stakes = StakeDistribution.uniform(4, 1)
        election = VrfLeaderElection(stakes, 0.5)
        assert [p.name for p in election.leaders(9)] == [
            p.name for p in election.leaders(9)
        ]

    def test_eligibility_consistent_with_leaders(self):
        stakes = StakeDistribution.uniform(4, 1)
        election = VrfLeaderElection(stakes, 0.5)
        for slot in range(1, 20):
            leaders = {p.name for p in election.leaders(slot)}
            for party in stakes.parties:
                eligible, _value, _proof = election.eligibility(party, slot)
                assert (party.name in leaders) == eligible

    def test_empty_slot_probability(self):
        """Pr[nobody leads] = 1 − f exactly, via φ aggregation."""
        stakes = StakeDistribution.uniform(6, 2)
        activity = 0.25
        election = VrfLeaderElection(stakes, activity)
        empty = sum(
            1 for slot in range(1, 4001) if not election.leaders(slot)
        )
        assert abs(empty / 4000 - (1 - activity)) < 0.025


def election_cases():
    """(stakes, activity): uniform, skewed, zero-stake, activity 1."""
    skewed = StakeDistribution(
        [
            Party("whale", 6.0),
            Party("mid", 2.0),
            Party("minnow", 0.25),
            Party("raider", 3.0, corrupted=True),
        ]
    )
    with_zero = StakeDistribution(
        [Party("a", 1.0), Party("idle", 0.0), Party("b", 2.0)]
    )
    return [
        pytest.param(StakeDistribution.uniform(6, 2), 0.4, id="uniform"),
        pytest.param(skewed, 0.3, id="skewed"),
        pytest.param(with_zero, 0.5, id="zero-stake"),
        pytest.param(skewed, 1.0, id="activity-1"),
    ]


class TestEligibilityTable:
    """The one-pass table equals lazy per-(party, slot) evaluation."""

    SLOTS = 150

    @pytest.mark.parametrize("stakes, activity", election_cases())
    def test_schedule_equals_lazy_eligibility(self, stakes, activity):
        table = VrfLeaderElection(
            stakes, activity, IdealVrf(seed="table"), "r"
        ).schedule(self.SLOTS)
        lazy = VrfLeaderElection(stakes, activity, IdealVrf(seed="table"), "r")
        assert sorted(table.leaders_by_slot) == list(range(1, self.SLOTS + 1))
        for slot in range(1, self.SLOTS + 1):
            assert [p.name for p in table.leaders(slot)] == [
                p.name for p in stakes.parties if lazy.eligibility(p, slot)[0]
            ]

    @pytest.mark.parametrize("stakes, activity", election_cases())
    def test_eligibility_after_schedule_matches_vrf(self, stakes, activity):
        election = VrfLeaderElection(stakes, activity, IdealVrf(seed="t"), "r")
        schedule = election.schedule(self.SLOTS)
        for party in stakes.parties:
            keypair = election.keypair(party)
            threshold = phi(activity, stakes.relative_stake(party))
            for slot in range(1, self.SLOTS + 1):
                value, proof = election.vrf.evaluate(keypair, f"r|slot-{slot}")
                assert election.eligibility(party, slot) == (
                    value < threshold, value, proof
                )
                assert (party in schedule.leaders(slot)) == (value < threshold)

    def test_activity_one_elects_every_staked_party(self):
        stakes = StakeDistribution(
            [Party("a", 1.0), Party("idle", 0.0), Party("b", 2.0)]
        )
        schedule = VrfLeaderElection(stakes, 1.0).schedule(50)
        for slot in range(1, 51):
            assert [p.name for p in schedule.leaders(slot)] == ["a", "b"]

    def test_full_stake_party_wins_on_the_max_digest(self, monkeypatch):
        """φ = 1 at activity 1: even the largest VRF output must win."""
        stakes = StakeDistribution([Party("whale", 1.0)])
        whale = stakes.parties[0]
        max_digest = b"\xff" * 32
        election = VrfLeaderElection(stakes, 1.0)
        monkeypatch.setattr(
            election.vrf,
            "evaluate",
            lambda keypair, vrf_input: (
                _digest_to_unit(max_digest.hex()), max_digest.hex()
            ),
        )
        assert election.eligibility(whale, 1)[0]
        # The table's integer comparison admits the same digest.
        prefix = int.from_bytes(max_digest[:8], "big")
        assert prefix < unit_cutoff(phi(1.0, stakes.relative_stake(whale)))
        schedule = VrfLeaderElection(stakes, 1.0).schedule(3)
        assert all(schedule.leaders(slot) == [whale] for slot in (1, 2, 3))

    @pytest.mark.parametrize("seed", range(6))
    def test_schedule_equals_eligibility_on_random_stake_splits(self, seed):
        """Random splits over twelve decades of stake, corrupted parties
        included: the cutoff table elects exactly the lazy winners."""
        rng = np.random.default_rng(seed)
        count = int(rng.integers(2, 9))
        raw = rng.random(count) * 10.0 ** -rng.integers(0, 12, size=count)
        parties = [
            Party(f"p{i}", float(stake), corrupted=bool(rng.random() < 0.3))
            for i, stake in enumerate(raw)
        ]
        stakes = StakeDistribution(parties)
        activity = float(rng.choice([0.05, 0.3, 0.9, 1.0]))
        randomness = f"split-{seed}"
        table = VrfLeaderElection(
            stakes, activity, IdealVrf(seed="split"), randomness
        ).schedule(self.SLOTS)
        lazy = VrfLeaderElection(
            stakes, activity, IdealVrf(seed="split"), randomness
        )
        for slot in range(1, self.SLOTS + 1):
            expected = [p for p in parties if lazy.eligibility(p, slot)[0]]
            assert table.leaders(slot) == expected


class TestSchedule:
    def test_symbols(self):
        honest_a = Party("a", 1.0)
        honest_b = Party("b", 1.0)
        corrupt = Party("c", 1.0, corrupted=True)
        schedule = LeaderSchedule(
            {
                1: [honest_a],
                2: [honest_a, honest_b],
                3: [honest_a, corrupt],
                4: [],
            }
        )
        assert schedule.characteristic_string() == "hHA."

    def test_length(self):
        schedule = LeaderSchedule({1: [], 2: []})
        assert len(schedule) == 2


class TestInducedProbabilities:
    def test_sums_to_one(self):
        stakes = StakeDistribution.uniform(5, 3)
        probs = induced_slot_probabilities(stakes, 0.3)
        assert math.isclose(sum(probs.as_tuple()), 1.0)

    def test_empty_probability_is_one_minus_activity(self):
        stakes = StakeDistribution.uniform(5, 3)
        probs = induced_slot_probabilities(stakes, 0.3)
        assert probs.p_empty == pytest.approx(0.7)

    def test_no_corrupted_parties_no_adversarial_slots(self):
        stakes = StakeDistribution.uniform(5, 0)
        probs = induced_slot_probabilities(stakes, 0.3)
        assert probs.p_adversarial == 0.0

    def test_matches_simulated_schedule(self):
        """Materialised schedules follow the exact induced law."""
        stakes = StakeDistribution.uniform(6, 2)
        activity = 0.4
        probs = induced_slot_probabilities(stakes, activity)
        election = VrfLeaderElection(stakes, activity)
        schedule = election.schedule(5000)
        word = schedule.characteristic_string()
        for symbol, expected in (
            ("h", probs.p_unique),
            ("H", probs.p_multi),
            ("A", probs.p_adversarial),
            (".", probs.p_empty),
        ):
            assert abs(word.count(symbol) / 5000 - expected) < 0.03

    def test_more_corruption_more_adversarial_slots(self):
        values = []
        for corrupted in (0, 2, 4):
            stakes = StakeDistribution.uniform(8 - corrupted, corrupted)
            values.append(
                induced_slot_probabilities(stakes, 0.3).p_adversarial
            )
        assert values == sorted(values)
