"""Per-block state shared across a simulation's nodes.

A :class:`~repro.protocol.simulation.Simulation` judges each distinct
block once, indexes each block's parent, slot and depth once, in one
:class:`~repro.protocol.block.BlockIndex` its nodes' trees share, and
never queues a broadcast back to its sender.  These tests pin what each
of those must leave unchanged: every validation still happens, once;
every node's tree answers as a tree of its own would; and a sender's
node already holds what it broadcast.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.protocol.adversary import Adversary
from repro.protocol.block import GENESIS, Block, BlockTree
from repro.protocol.leader import StakeDistribution
from repro.protocol.network import NetworkModel
from repro.protocol.simulation import Simulation
from repro.protocol.transport import Transport, TransportConfig

TRANSPORTS = [
    pytest.param(None, id="slot"),
    pytest.param(
        TransportConfig(
            latency=0.4, jitter="uniform", jitter_scale=0.5, topology="ring",
        ),
        id="wan-jitter",
    ),
]


class Resender(Adversary):
    """Shows its own blocks to the first recipient only, and re-sends.

    With each corrupted win it extends the longest chain it knows and
    injects the block into the first recipient alone, so the nodes'
    trees differ.  Every ``every`` slots it re-sends each block it has
    observed: its own to the first recipient again, the honest ones to
    every recipient."""

    def __init__(self, every: int = 4) -> None:
        super().__init__()
        self.every = every
        self.own: list[str] = []

    def act(self, slot, corrupted_leaders, network):
        if corrupted_leaders:
            party, proof = corrupted_leaders[0]
            tip = self.tree.longest_tips()[0]
            block, block_hash = self._mint(party, slot, tip, proof)
            self.own.append(block_hash)
            network.inject(block, self.recipients[0], slot)
        if slot % self.every:
            return
        for block_hash in self.tree.hashes()[1:]:
            block = self.tree.block(block_hash)
            if block_hash in self.own:
                network.inject(block, self.recipients[0], slot, priority=0)
            else:
                for recipient in self.recipients:
                    network.inject(block, recipient, slot, priority=0)


def make_simulation(transport=None, adversary=None):
    return Simulation(
        StakeDistribution.uniform(4, 2),
        activity=0.4,
        total_slots=40,
        adversary=adversary,
        randomness="shared-state",
        transport=transport,
    )


def logged_run(simulation):
    """Run; return each ``(recipient, block)`` a node's ``receive`` got."""
    deliveries = []
    for name, node in simulation.nodes.items():
        receive = node.receive

        def logged(block, name=name, receive=receive):
            deliveries.append((name, block))
            return receive(block)

        node.receive = logged
    simulation.run()
    return deliveries


class TestValidityMemo:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_each_block_is_verified_once(self, transport):
        """Signature and VRF eligibility: one check per distinct
        ``(block hash, signature)``, however often it arrives."""
        simulation = make_simulation(transport, Resender())
        signatures, vrf = simulation.signatures, simulation.election.vrf
        verify, evaluate = signatures.verify, vrf.evaluate
        verified, evaluated = Counter(), Counter()

        def counted_verify(public, message, signature):
            verified[(public, message, signature)] += 1
            return verify(public, message, signature)

        def counted_evaluate(keypair, vrf_input):
            evaluated[(keypair.public, vrf_input)] += 1
            return evaluate(keypair, vrf_input)

        signatures.verify = counted_verify
        vrf.evaluate = counted_evaluate
        deliveries = logged_run(simulation)
        per_block = Counter((b.block_hash, b.signature) for _, b in deliveries)
        assert max(per_block.values()) > len(simulation.nodes)  # re-sent
        assert sum(verified.values()) == len(per_block)
        assert set(verified.values()) == {1}
        assert sum(evaluated.values()) == len(per_block)
        assert set(evaluated.values()) == {1}

    def test_memo_keys_on_the_signature_too(self):
        """The hash does not cover the signature: a forged copy of a
        valid block is judged on its own, and dropped."""
        simulation = Simulation(
            StakeDistribution.uniform(3, 0),
            activity=0.5,
            total_slots=10,
            randomness="forged-copy",
        )
        result = simulation.run()
        block = next(b for r in result.records for b in r.honest_blocks)
        forged = Block(
            block.slot,
            block.parent_hash,
            block.issuer,
            block.payload,
            block.vrf_proof,
            "forged",
        )
        assert forged.block_hash == block.block_hash
        node = next(iter(simulation.nodes.values()))
        assert not node.receive(forged)
        assert node.receive(block)


class TestSharedIndex:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_each_tree_answers_as_its_own_tree(self, transport):
        simulation = make_simulation(transport, Resender())
        simulation.run()
        trees = [node.tree for node in simulation.nodes.values()]
        sizes = {len(tree) for tree in trees}
        assert len(sizes) > 1  # the trees differ; the index holds them all
        assert len(simulation.index.depths) == len(
            set().union(*(tree.hashes() for tree in trees))
        )
        slots = range(simulation.total_slots + 2)
        for tree in trees:
            fresh = BlockTree()
            for block in tree.all_blocks()[1:]:
                assert fresh.add_block(block)
            hashes = tree.hashes()
            assert hashes == fresh.hashes()
            assert tree.longest_tips() == fresh.longest_tips()
            assert tree.tips() == fresh.tips()
            for h in hashes:
                assert tree.depth(h) == fresh.depth(h)
                assert tree.parent_of(h) == fresh.parent_of(h)
                assert tree.slot_of(h) == fresh.slot_of(h)
                for slot in slots:
                    assert tree.prefix_hash_at_slot(
                        h, slot
                    ) == fresh.prefix_hash_at_slot(h, slot)
            for a in hashes:
                for b in hashes:
                    assert tree.common_prefix_slot(
                        a, b
                    ) == fresh.common_prefix_slot(a, b)


def make_network(transport, recipients):
    if transport is None:
        return NetworkModel(recipients)
    return Transport(recipients, config=transport, seed=5)


class TestNoLoopback:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_broadcast_queues_nothing_for_its_sender(self, transport):
        network = make_network(transport, ["a", "b", "c"])
        block = Block(2, GENESIS.block_hash, "issuer")
        network.broadcast(block, 2, sender="b")
        assert network._buckets["b"] == {}
        assert network.pending_count() == 2
        assert len(network.realized_delays) == 2
        assert "b" not in network.ready(10)
        assert network.due("b", 10) == []

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_no_node_receives_its_own_block(self, transport):
        """Without an adversary to re-send them, a node's own blocks
        never come back to it, and it still holds every one."""
        simulation = make_simulation(transport)
        deliveries = logged_run(simulation)
        nodes = simulation.nodes
        issuers = {node.keypair.public: name for name, node in nodes.items()}
        assert deliveries
        assert all(issuers[b.issuer] != name for name, b in deliveries)
        minted = {b.block_hash: issuers[b.issuer] for _, b in deliveries}
        for block_hash, minter in minted.items():
            assert block_hash in nodes[minter].tree
