"""Hash-chained blocks and block trees (the protocol's ledger layer).

A :class:`Block` commits to its parent by hash (immutability: a block
pins its entire prefix — the property behind fork axiom A2/F2) and
carries the slot number, the issuer's verification key, the VRF
eligibility proof, an opaque payload, and the issuer's signature.
A block is frozen, so ``Block.block_hash`` and the signed header digest
are computed once per instance, on first access, and cached on it.

A :class:`BlockTree` is a node's local view: all valid blocks received
so far, indexed by hash, rooted at genesis.  Each block's parent, slot
and depth are pure functions of the block, so they live in a
:class:`BlockIndex` that many trees can share: a simulation keeps one
index for all its honest nodes and writes each block's entry once, by
the first node to take it, while each tree keeps only what is its own —
membership and depth buckets.  Every chain query the protocol layer
needs — longest tips, common prefix, prefix-at-slot — resolves through
dictionary walks without touching a block.  The batched protocol
measurements (:mod:`repro.protocol.simulation`,
:mod:`repro.engine.protocol`) lean on these indexes; the chain-walking
reference predicates in ``tests/protocol/test_determinism.py`` walk
:meth:`BlockTree.chain` and compare the blocks' hashes instead.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

from repro.protocol.crypto import hash_data

#: Slot number carried by the genesis block.
GENESIS_SLOT = 0


@dataclass(frozen=True)
class Block:
    """One immutable block.

    ``parent_hash`` is ``""`` only for genesis.  ``issuer`` is the
    issuing party's verification key (empty for genesis); ``signature``
    and ``vrf_proof`` are the ideal-functionality tags a receiving
    :class:`~repro.protocol.node.HonestNode` checks.  The hash and the header digest
    are cached on the instance, outside the dataclass fields, so
    equality and ``hash()`` see only the content.
    """

    slot: int
    parent_hash: str
    issuer: str
    payload: str = ""
    vrf_proof: str = ""
    signature: str = ""

    @cached_property
    def block_hash(self) -> str:
        """Commitment to the full content (and, transitively, the prefix)."""
        return hash_data(
            "block",
            self.slot,
            self.parent_hash,
            self.issuer,
            self.payload,
            self.vrf_proof,
        )

    @cached_property
    def _header(self) -> str:
        return hash_data(
            "header", self.slot, self.parent_hash, self.issuer, self.payload
        )

    def header(self) -> str:
        """The signed portion of the block."""
        return self._header


def signed(draft: Block, sign: Callable[[str], str]) -> Block:
    """``draft`` carrying the signature ``sign(draft.header())``.

    The signature is outside the header, so the signed block shares the
    draft's header digest and hashes it once, not twice.
    """
    header = draft.header()
    block = Block(
        draft.slot,
        draft.parent_hash,
        draft.issuer,
        draft.payload,
        draft.vrf_proof,
        sign(header),
    )
    block.__dict__["_header"] = header
    return block


#: The common genesis block (slot 0), shared by every party and tree.
GENESIS = Block(slot=GENESIS_SLOT, parent_hash="", issuer="")


def genesis_block() -> Block:
    """The common genesis block (slot 0), shared by every party."""
    return GENESIS


class BlockIndex:
    """Parent, slot and depth of every block some tree holds, by hash.

    All three are pure functions of the block, so one index serves any
    number of trees: a :class:`~repro.protocol.simulation.Simulation`
    gives one to every honest node, and the first tree to take a block
    writes its entry, once.  A tree built without one keeps its own.
    """

    def __init__(self) -> None:
        root_hash = GENESIS.block_hash
        self.parents: dict[str, str] = {root_hash: ""}
        self.slots: dict[str, int] = {root_hash: GENESIS_SLOT}
        self.depths: dict[str, int] = {root_hash: 0}


class BlockTree:
    """A party's local set of valid blocks, rooted at genesis.

    Provides chain queries used by the longest-chain rule.  Validation is
    structural here (parent known, slot increasing); leader-eligibility
    and signature checks are injected by the simulation via a callback so
    the tree stays independent of the election mechanism.

    The tree itself holds its membership (hash → block, in insertion
    order) and its depth buckets; parents, slots and depths live in
    ``index``, which other trees may share.  A shared index also knows
    blocks this tree lacks, so :meth:`depth`, :meth:`parent_of` and
    :meth:`slot_of` answer for the tree's own blocks only.
    """

    def __init__(self, index: BlockIndex | None = None) -> None:
        if index is None:
            index = BlockIndex()
        root_hash = GENESIS.block_hash
        self._blocks: dict[str, Block] = {root_hash: GENESIS}
        self._parents = index.parents
        self._slots = index.slots
        self._depths = index.depths
        #: depth → hashes at that depth, in insertion order.
        self._by_depth: dict[int, list[str]] = {0: [root_hash]}
        self._max_depth = 0
        self.genesis_hash = root_hash

    def __contains__(self, block_hash: str) -> bool:
        return block_hash in self._blocks

    def __len__(self) -> int:
        return len(self._blocks)

    def block(self, block_hash: str) -> Block:
        """Look a block up by hash."""
        return self._blocks[block_hash]

    def depth(self, block_hash: str) -> int:
        """Chain length (number of non-genesis ancestors, inclusive)."""
        return self._depths[block_hash]

    def parent_of(self, block_hash: str) -> str:
        """Parent hash (``""`` for genesis) without touching the block."""
        return self._parents[block_hash]

    def slot_of(self, block_hash: str) -> int:
        """Slot label without touching the block."""
        return self._slots[block_hash]

    def hashes(self) -> list[str]:
        """All block hashes, genesis included, in insertion order."""
        return list(self._blocks)

    def add_block(self, block: Block) -> bool:
        """Insert a structurally valid block; idempotent.

        Returns ``True`` when the block is (now) present, ``False`` when
        rejected (unknown parent or non-increasing slot).  The index
        entry is written only if no tree sharing the index wrote it.
        """
        block_hash = block.block_hash
        blocks = self._blocks
        if block_hash in blocks:
            return True
        parent_hash = block.parent_hash
        if parent_hash not in blocks or block.slot <= self._slots[parent_hash]:
            return False
        blocks[block_hash] = block
        depth = self._depths.get(block_hash)
        if depth is None:
            depth = self._depths[parent_hash] + 1
            self._depths[block_hash] = depth
            self._parents[block_hash] = parent_hash
            self._slots[block_hash] = block.slot
        # The parent sits at depth − 1, so a missing bucket is the
        # first block one deeper than any before it.
        bucket = self._by_depth.get(depth)
        if bucket is None:
            self._by_depth[depth] = [block_hash]
            self._max_depth = depth
        else:
            bucket.append(block_hash)
        return True

    def tips(self) -> list[str]:
        """Hashes of leaf blocks (chains not extended by anything known)."""
        parents = {self._parents[h] for h in self._blocks}
        return [h for h in self._blocks if h not in parents]

    def longest_tips(self) -> list[str]:
        """All block hashes at maximal depth (the LCR tie set)."""
        return list(self._by_depth[self._max_depth])

    def chain(self, block_hash: str) -> list[Block]:
        """The chain from genesis to ``block_hash`` (inclusive)."""
        chain: list[Block] = []
        cursor = block_hash
        while True:
            block = self._blocks[cursor]
            chain.append(block)
            if block.parent_hash == "":
                break
            cursor = block.parent_hash
        chain.reverse()
        return chain

    def common_prefix_slot(self, first: str, second: str) -> int:
        """Slot of the deepest common ancestor of two chains.

        Resolved by lifting the deeper chain to equal depth and walking
        both up in lockstep over the parent index — O(depth), no hash
        recomputation.
        """
        a, b = first, second
        depth_a, depth_b = self._depths[a], self._depths[b]
        while depth_a > depth_b:
            a = self._parents[a]
            depth_a -= 1
        while depth_b > depth_a:
            b = self._parents[b]
            depth_b -= 1
        while a != b:
            a = self._parents[a]
            b = self._parents[b]
        return self._slots[a]

    def prefix_hash_at_slot(self, block_hash: str, slot: int) -> str:
        """Hash of the last block with slot ≤ ``slot`` on the given chain.

        The k-CP comparison primitive: ``C[0 : s]`` of Section 9.  Slots
        strictly increase along a chain, so walking up from the tip until
        the label fits is exact.
        """
        cursor = block_hash
        while self._slots[cursor] > slot:
            cursor = self._parents[cursor]
        return cursor

    def all_blocks(self) -> list[Block]:
        """All blocks, genesis included, in insertion order."""
        return list(self._blocks.values())
