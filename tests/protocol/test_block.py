"""Blocks and block trees (the ledger layer)."""

from repro.protocol.block import Block, BlockTree, genesis_block


def chain_of(tree: BlockTree, *slots: int) -> list[Block]:
    """Append a chain of unsigned test blocks at the given slots."""
    parent = tree.genesis_hash
    blocks = []
    for slot in slots:
        block = Block(slot=slot, parent_hash=parent, issuer=f"issuer-{slot}")
        assert tree.add_block(block)
        blocks.append(block)
        parent = block.block_hash
    return blocks


class TestBlock:
    def test_hash_commits_to_content(self):
        a = Block(1, "p", "i", payload="x")
        b = Block(1, "p", "i", payload="y")
        assert a.block_hash != b.block_hash

    def test_hash_commits_to_parent(self):
        a = Block(1, "p1", "i")
        b = Block(1, "p2", "i")
        assert a.block_hash != b.block_hash

    def test_signature_not_part_of_hash(self):
        """The signature covers the header; the hash covers the content."""
        unsigned = Block(1, "p", "i")
        signed = Block(1, "p", "i", signature="sig")
        assert unsigned.block_hash == signed.block_hash

    def test_genesis(self):
        genesis = genesis_block()
        assert genesis.slot == 0
        assert genesis.parent_hash == ""


class TestBlockTree:
    def test_initial_state(self):
        tree = BlockTree()
        assert len(tree) == 1
        assert tree.depth(tree.longest_tips()[0]) == 0

    def test_chain_growth(self):
        tree = BlockTree()
        chain_of(tree, 1, 2, 5)
        tip = tree.longest_tips()[0]
        assert tree.depth(tip) == 3
        assert [b.slot for b in tree.chain(tip)] == [0, 1, 2, 5]

    def test_unknown_parent_rejected(self):
        tree = BlockTree()
        orphan = Block(3, "missing", "i")
        assert not tree.add_block(orphan)
        assert orphan.block_hash not in tree

    def test_non_increasing_slot_rejected(self):
        tree = BlockTree()
        blocks = chain_of(tree, 4)
        sibling = Block(4, blocks[0].block_hash, "j")
        assert not tree.add_block(sibling)

    def test_add_is_idempotent(self):
        tree = BlockTree()
        block = Block(1, tree.genesis_hash, "i")
        assert tree.add_block(block)
        assert tree.add_block(block)
        assert len(tree) == 2

    def test_forked_tips(self):
        tree = BlockTree()
        a = Block(1, tree.genesis_hash, "a")
        b = Block(1, tree.genesis_hash, "b")
        tree.add_block(a)
        tree.add_block(b)
        assert len(tree.tips()) == 2
        assert set(tree.longest_tips()) == {a.block_hash, b.block_hash}

    def test_common_prefix_slot(self):
        tree = BlockTree()
        trunk = chain_of(tree, 1, 2)
        left = Block(3, trunk[-1].block_hash, "l")
        right = Block(4, trunk[-1].block_hash, "r")
        tree.add_block(left)
        tree.add_block(right)
        assert tree.common_prefix_slot(left.block_hash, right.block_hash) == 2
        assert tree.common_prefix_slot(left.block_hash, left.block_hash) == 3

    def test_prefix_hash_at_slot(self):
        tree = BlockTree()
        blocks = chain_of(tree, 1, 3, 7)
        tip = blocks[-1].block_hash
        assert tree.prefix_hash_at_slot(tip, 0) == tree.genesis_hash
        assert tree.prefix_hash_at_slot(tip, 3) == blocks[1].block_hash
        assert tree.prefix_hash_at_slot(tip, 6) == blocks[1].block_hash
        assert tree.prefix_hash_at_slot(tip, 7) == tip

    def test_depth_bookkeeping(self):
        tree = BlockTree()
        blocks = chain_of(tree, 2, 4)
        assert tree.depth(tree.genesis_hash) == 0
        assert tree.depth(blocks[0].block_hash) == 1
        assert tree.depth(blocks[1].block_hash) == 2
