"""Honest nodes: validation, chain selection, minting."""

import pytest

from repro.protocol.block import Block
from repro.protocol.crypto import IdealSignatureScheme
from repro.protocol.node import HonestNode, validity_check
from repro.protocol.tiebreak import adversarial_order_rule, consistent_hash_rule


@pytest.fixture()
def scheme():
    return IdealSignatureScheme()


def make_node(scheme, rule=adversarial_order_rule, accept_all=True):
    keypair = scheme.generate_keypair()
    check = (lambda issuer, slot, proof: accept_all) if isinstance(
        accept_all, bool
    ) else accept_all
    return HonestNode("node", keypair, scheme, rule, validity_check(scheme, check))


def signed_block(scheme, keypair, slot, parent_hash, payload=""):
    draft = Block(slot, parent_hash, keypair.public, payload, "proof")
    signature = scheme.sign(keypair, draft.header())
    return Block(slot, parent_hash, keypair.public, payload, "proof", signature)


class TestReceive:
    def test_valid_block_accepted(self, scheme):
        node = make_node(scheme)
        producer = scheme.generate_keypair()
        block = signed_block(scheme, producer, 1, node.tree.genesis_hash)
        assert node.receive(block)
        assert block.block_hash in node.tree

    def test_bad_signature_dropped(self, scheme):
        node = make_node(scheme)
        producer = scheme.generate_keypair()
        block = Block(1, node.tree.genesis_hash, producer.public, "", "p", "bad")
        assert not node.receive(block)
        assert block.block_hash not in node.tree

    def test_ineligible_issuer_dropped(self, scheme):
        node = make_node(scheme, accept_all=lambda i, s, p: False)
        producer = scheme.generate_keypair()
        block = signed_block(scheme, producer, 1, node.tree.genesis_hash)
        assert not node.receive(block)

    def test_fake_genesis_rejected(self, scheme):
        node = make_node(scheme)
        assert not node.receive(Block(0, "", "someone"))

    def test_orphan_reconnected_on_parent_arrival(self, scheme):
        """The network may reorder: children arriving first are buffered."""
        node = make_node(scheme)
        producer = scheme.generate_keypair()
        parent = signed_block(scheme, producer, 1, node.tree.genesis_hash)
        child = signed_block(scheme, producer, 2, parent.block_hash)
        assert not node.receive(child)  # parent unknown: orphaned
        assert node.receive(parent)  # drains the orphan too
        assert child.block_hash in node.tree
        assert node.tree.depth(node.best_tip()) == 2


class TestChainSelection:
    def test_longest_chain_wins(self, scheme):
        node = make_node(scheme)
        producer = scheme.generate_keypair()
        a = signed_block(scheme, producer, 1, node.tree.genesis_hash)
        b1 = signed_block(scheme, producer, 2, node.tree.genesis_hash)
        b2 = signed_block(scheme, producer, 3, b1.block_hash)
        for block in (a, b1, b2):
            node.receive(block)
        assert node.best_tip() == b2.block_hash

    def test_tie_breaks_by_arrival_order(self, scheme):
        node = make_node(scheme, rule=adversarial_order_rule)
        producer = scheme.generate_keypair()
        first = signed_block(scheme, producer, 1, node.tree.genesis_hash, "1")
        second = signed_block(scheme, producer, 2, node.tree.genesis_hash, "2")
        node.receive(first)
        node.receive(second)
        assert node.best_tip() == first.block_hash

    def test_consistent_rule_ignores_arrival(self, scheme):
        producer = scheme.generate_keypair()
        tips = {}
        for order in ("ab", "ba"):
            node = make_node(scheme, rule=consistent_hash_rule)
            a = signed_block(scheme, producer, 1, node.tree.genesis_hash, "a")
            b = signed_block(scheme, producer, 2, node.tree.genesis_hash, "b")
            for label in order:
                node.receive(a if label == "a" else b)
            tips[order] = node.best_tip()
        assert tips["ab"] == tips["ba"]


class TestMinting:
    def test_minted_block_extends_best_chain(self, scheme):
        node = make_node(scheme)
        producer = scheme.generate_keypair()
        base = signed_block(scheme, producer, 1, node.tree.genesis_hash)
        node.receive(base)
        block = node.mint_block(2, "proof")
        assert block.parent_hash == base.block_hash
        assert node.best_tip() == block.block_hash

    def test_minted_block_is_well_signed(self, scheme):
        node = make_node(scheme)
        block = node.mint_block(1, "proof")
        assert scheme.verify(
            node.keypair.public, block.header(), block.signature
        )
