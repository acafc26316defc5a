"""Protocol-level adversary strategies in isolation."""

import pytest

from repro.protocol.adversary import (
    Adversary,
    MaxDelayAdversary,
    NullAdversary,
    PrivateChainAdversary,
    SplitAdversary,
)
from repro.protocol.block import Block
from repro.protocol.crypto import IdealSignatureScheme
from repro.protocol.leader import Party
from repro.protocol.network import NetworkModel


def attached(adversary: Adversary, recipients=("n0", "n1")):
    scheme = IdealSignatureScheme()
    keys = {"mallory": scheme.generate_keypair()}
    adversary.attach(scheme, keys, list(recipients))
    return adversary, scheme


class TestBaseAdversary:
    def test_observes_blocks_into_private_tree(self):
        adversary, _ = attached(Adversary())
        genesis_hash = adversary.tree.genesis_hash
        block = Block(1, genesis_hash, "honest")
        adversary.observe_block(block)
        assert block.block_hash in adversary.tree

    def test_mint_requires_attachment(self):
        adversary = Adversary()
        with pytest.raises(AssertionError):
            adversary._mint(Party("mallory", 1.0, True), 1, "x", "proof")

    def test_minted_blocks_are_well_signed(self):
        adversary, scheme = attached(Adversary())
        party = Party("mallory", 1.0, corrupted=True)
        block, block_hash = adversary._mint(
            party, 1, adversary.tree.genesis_hash, "proof"
        )
        assert scheme.verify(block.issuer, block.header(), block.signature)
        assert block_hash == block.block_hash

    def test_default_hooks_are_inert(self):
        adversary, _ = attached(NullAdversary())
        delays, priorities = adversary.honest_delays(1, None)
        assert delays == {} and priorities == {}
        network = NetworkModel(["n0", "n1"])
        adversary.act(1, [], network)
        assert network.pending_count() == 0


class TestPrivateChainAdversary:
    def test_forks_before_target(self):
        adversary, _ = attached(PrivateChainAdversary(target_slot=3, hold=5))
        genesis = adversary.tree.genesis_hash
        early = Block(1, genesis, "honest-1")
        adversary.observe_block(early)
        party = Party("mallory", 1.0, corrupted=True)
        network = NetworkModel(["n0", "n1"])
        adversary.act(3, [(party, "proof")], network)
        assert adversary._fork_point == early.block_hash
        # private block extends the fork point; hold keeps it unpublished
        assert network.pending_count() == 0

    def test_releases_with_lead(self):
        adversary, _ = attached(PrivateChainAdversary(target_slot=1, hold=0))
        party = Party("mallory", 1.0, corrupted=True)
        network = NetworkModel(["n0", "n1"])
        adversary.act(1, [(party, "p1")], network)  # fork + first private
        # private chain depth 1 vs public height 0 -> lead achieved
        assert network.pending_count() == 2  # one block x two recipients

    def test_honours_hold_period(self):
        adversary, _ = attached(
            PrivateChainAdversary(target_slot=1, hold=10)
        )
        party = Party("mallory", 1.0, corrupted=True)
        network = NetworkModel(["n0"])
        for slot in (1, 2, 3):
            adversary.act(slot, [(party, f"p{slot}")], network)
        assert network.pending_count() == 0  # still inside the hold window

    def test_one_extension_per_slot(self):
        """Two corrupted leaders in a slot cannot chain two blocks (F2)."""
        adversary, scheme = attached(PrivateChainAdversary(1, hold=5))
        a = Party("mallory", 1.0, corrupted=True)
        adversary.keys["mallory2"] = scheme.generate_keypair()
        b = Party("mallory2", 1.0, corrupted=True)
        network = NetworkModel(["n0"])
        adversary.act(1, [(a, "pa"), (b, "pb")], network)
        tip = adversary._private_tip
        assert adversary.tree.depth(tip) == 1


class TestSplitAdversary:
    def test_opposite_priorities_for_concurrent_blocks(self):
        adversary, _ = attached(SplitAdversary(), recipients=("n0", "n1"))
        genesis = adversary.tree.genesis_hash
        first = Block(2, genesis, "leader-a")
        second = Block(2, genesis, "leader-b")
        adversary.observe_block(first)
        adversary.observe_block(second)
        _, priorities_first = adversary.honest_delays(2, first)
        _, priorities_second = adversary.honest_delays(2, second)
        # group 0 (n0) favours the first block, group 1 (n1) the second
        assert priorities_first["n0"] < priorities_first["n1"]
        assert priorities_second["n0"] > priorities_second["n1"]

    def test_single_block_slots_are_neutral_per_group(self):
        adversary, _ = attached(SplitAdversary(), recipients=("n0", "n1"))
        block = Block(1, adversary.tree.genesis_hash, "only")
        adversary.observe_block(block)
        _, priorities = adversary.honest_delays(1, block)
        assert priorities["n0"] == 0  # favoured for group 0


class TestMaxDelayAdversary:
    def test_delays_everyone_by_budget(self):
        adversary, _ = attached(MaxDelayAdversary(max_delay=3))
        block = Block(1, adversary.tree.genesis_hash, "x")
        delays, _ = adversary.honest_delays(1, block)
        assert delays == {"n0": 3, "n1": 3}
