"""End-to-end protocol simulations and their measurements."""

import pytest

from repro.protocol.adversary import (
    MaxDelayAdversary,
    PrivateChainAdversary,
    SplitAdversary,
)
from repro.protocol.block import Block
from repro.protocol.leader import StakeDistribution
from repro.protocol.simulation import Simulation
from repro.protocol.tiebreak import consistent_hash_rule
from tests.protocol.reference_validation import per_node_validation


def run_simulation(**overrides):
    config = dict(
        stakes=StakeDistribution.uniform(6, 0),
        activity=0.3,
        total_slots=80,
        randomness="test-seed",
    )
    config.update(overrides)
    return Simulation(**config).run()


class TestHonestBaseline:
    def test_single_chain_emerges(self):
        result = run_simulation()
        final_tips = result.records[-1].adopted_tips
        # with immediate delivery, slots after the last leader agree
        assert len(set(final_tips.values())) == 1

    def test_no_settlement_violation(self):
        result = run_simulation()
        assert not result.settlement_violation(10, 20)

    def test_no_cp_violation(self):
        result = run_simulation()
        assert not result.cp_slot_violation(20)

    def test_characteristic_string_has_no_adversarial(self):
        result = run_simulation()
        assert "A" not in result.characteristic_string

    def test_execution_fork_valid(self):
        fork = run_simulation().execution_fork()
        fork.validate()

    def test_chain_growth_matches_honest_slots(self):
        """Every non-empty slot adds exactly one depth (synchrony, A4)."""
        result = run_simulation()
        word = result.characteristic_string
        active = sum(1 for c in word if c != ".")
        union = result.union_tree()
        assert union.depth(union.longest_tips()[0]) == active


class TestPrivateChainAttack:
    def test_attack_produces_valid_fork(self):
        result = run_simulation(
            stakes=StakeDistribution.uniform(6, 4),
            activity=0.4,
            total_slots=120,
            adversary=PrivateChainAdversary(target_slot=15, hold=6),
        )
        result.execution_fork().validate()

    def test_attack_sometimes_wins_with_large_stake(self):
        wins = 0
        for seed in range(10):
            result = run_simulation(
                stakes=StakeDistribution.uniform(5, 5),
                activity=0.4,
                total_slots=120,
                adversary=PrivateChainAdversary(
                    target_slot=15, hold=4, patience=80
                ),
                randomness=f"attack-{seed}",
            )
            if result.settlement_violation(15, 3):
                wins += 1
        assert wins >= 1

    def test_attack_never_wins_without_stake(self):
        result = run_simulation(
            adversary=PrivateChainAdversary(target_slot=10, hold=4),
        )
        assert not result.settlement_violation(10, 4)


class TestSplitAttack:
    def test_split_hurts_adversarial_tiebreak_more(self):
        """The Theorem 2 ablation: A0 suffers deeper reorgs than A0′."""
        stakes = StakeDistribution.uniform(10, 0)
        depths = {}
        for label, rule in (
            ("adversarial", None),
            ("consistent", consistent_hash_rule),
        ):
            total = 0
            for seed in range(4):
                kwargs = dict(
                    stakes=stakes,
                    activity=0.8,
                    total_slots=80,
                    adversary=SplitAdversary(),
                    randomness=f"split-{seed}",
                )
                if rule is not None:
                    kwargs["tie_break"] = rule
                total += run_simulation(**kwargs).max_reorg_depth()
            depths[label] = total
        assert depths["adversarial"] > depths["consistent"]


class TestDeltaSimulation:
    def test_delayed_delivery_produces_valid_delta_fork(self):
        result = run_simulation(
            stakes=StakeDistribution.uniform(8, 0),
            activity=0.3,
            total_slots=100,
            delta=3,
            adversary=MaxDelayAdversary(max_delay=3),
        )
        fork = result.execution_fork()
        fork.validate()

    def test_delay_increases_reorg_depth(self):
        shallow = run_simulation(
            stakes=StakeDistribution.uniform(8, 0),
            activity=0.5,
            total_slots=100,
        ).max_reorg_depth()
        deep = 0
        for seed in range(3):
            deep += run_simulation(
                stakes=StakeDistribution.uniform(8, 0),
                activity=0.5,
                total_slots=100,
                delta=4,
                adversary=MaxDelayAdversary(max_delay=4),
                randomness=f"delay-{seed}",
            ).max_reorg_depth()
        assert deep >= shallow


class TestEligibilityEnforcement:
    def test_forged_proof_rejected_by_nodes(self):
        simulation = Simulation(
            StakeDistribution.uniform(3, 0),
            activity=0.5,
            total_slots=10,
            randomness="forge",
        )
        node = next(iter(simulation.nodes.values()))
        intruder_keys = simulation.signatures.generate_keypair()
        draft_parent = node.tree.genesis_hash
        draft = Block(1, draft_parent, intruder_keys.public, "", "fake-proof")
        signature = simulation.signatures.sign(intruder_keys, draft.header())
        forged = Block(
            1, draft_parent, intruder_keys.public, "", "fake-proof", signature
        )
        assert not node.receive(forged)


def signed_block(simulation, party, slot, proof):
    """A genesis child at ``slot``, validly signed by ``party``."""
    keypair = simulation.nodes[party.name].keypair
    parent = next(iter(simulation.nodes.values())).tree.genesis_hash
    draft = Block(slot, parent, keypair.public, "", proof)
    signature = simulation.signatures.sign(keypair, draft.header())
    return Block(slot, parent, keypair.public, "", proof, signature)


@pytest.mark.parametrize("shared", [True, False], ids=["shared", "reference"])
class TestRegisteredIssuerValidation:
    """Registered, correctly signing parties still face the VRF check.

    The eligibility table only draws the lottery; a received block's
    proof must still verify for its own slot and beat the threshold,
    in shared and in reference validation alike.
    """

    def setup_case(self, shared):
        simulation = Simulation(
            StakeDistribution.uniform(4, 0),
            activity=0.5,
            total_slots=10,
            randomness="forge",
        )
        if not shared:
            per_node_validation(simulation)
        election = simulation.election
        for party in simulation.stakes.parties:
            wins = [s for s in range(1, 41) if election.eligibility(party, s)[0]]
            losses = [
                s for s in range(1, 41) if not election.eligibility(party, s)[0]
            ]
            if wins and losses:
                receiver = next(
                    node
                    for name, node in simulation.nodes.items()
                    if name != party.name
                )
                return simulation, receiver, party, wins[0], losses[0]
        raise AssertionError("no party both wins and loses a slot")

    def test_genuine_winning_block_accepted(self, shared):
        simulation, receiver, party, won, _lost = self.setup_case(shared)
        proof = simulation.election.eligibility(party, won)[2]
        assert receiver.receive(signed_block(simulation, party, won, proof))

    def test_winning_proof_replayed_at_another_slot(self, shared):
        simulation, receiver, party, won, lost = self.setup_case(shared)
        proof = simulation.election.eligibility(party, won)[2]
        assert not receiver.receive(signed_block(simulation, party, lost, proof))

    def test_genuine_proof_of_a_slot_not_won(self, shared):
        simulation, receiver, party, _won, lost = self.setup_case(shared)
        eligible, _value, proof = simulation.election.eligibility(party, lost)
        assert not eligible
        assert not receiver.receive(signed_block(simulation, party, lost, proof))

    @pytest.mark.parametrize("position", [0, 63])
    def test_winning_proof_with_one_hex_digit_changed(self, shared, position):
        simulation, receiver, party, won, _lost = self.setup_case(shared)
        proof = simulation.election.eligibility(party, won)[2]
        digit = "0" if proof[position] != "0" else "1"
        tampered = proof[:position] + digit + proof[position + 1 :]
        assert not receiver.receive(signed_block(simulation, party, won, tampered))

    @pytest.mark.parametrize(
        "proof", ["", "zz" * 32, "0f"], ids=["empty", "non-hex", "two-digits"]
    )
    def test_malformed_proof_rejected(self, shared, proof):
        simulation, receiver, party, won, _lost = self.setup_case(shared)
        assert not receiver.receive(signed_block(simulation, party, won, proof))
