"""Hash-chained blocks and block trees (the protocol's ledger layer).

A :class:`Block` commits to its parent by hash (immutability: a block
pins its entire prefix — the property behind fork axiom A2/F2) and
carries the slot number, the issuer's verification key, the VRF
eligibility proof, an opaque payload, and the issuer's signature.
A block is frozen, so ``Block.block_hash`` and the signed header digest
are computed once per instance, on first access, and cached on it.

A :class:`BlockTree` is a node's local view: all valid blocks received
so far, indexed by hash, rooted at genesis.  Beyond the block map it
maintains parent, slot, depth, and depth-bucket indexes keyed by hash,
so every chain query the protocol layer needs — longest tips, common
prefix, prefix-at-slot — resolves through dictionary walks without
touching a block.  The batched protocol measurements
(:mod:`repro.protocol.simulation`, :mod:`repro.engine.protocol`) lean on
these indexes; the chain-walking reference predicates in
``tests/protocol/test_determinism.py`` walk :meth:`chain` and compare
the blocks' hashes instead.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace
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
    block = replace(draft, signature=sign(draft.header()))
    block.__dict__["_header"] = draft.header()
    return block


#: The common genesis block (slot 0), shared by every party and tree.
GENESIS = Block(slot=GENESIS_SLOT, parent_hash="", issuer="")


def genesis_block() -> Block:
    """The common genesis block (slot 0), shared by every party."""
    return GENESIS


class BlockTree:
    """A party's local set of valid blocks, rooted at genesis.

    Provides chain queries used by the longest-chain rule.  Validation is
    structural here (parent known, slot increasing); leader-eligibility
    and signature checks are injected by the simulation via a callback so
    the tree stays independent of the election mechanism.
    """

    def __init__(self) -> None:
        root_hash = GENESIS.block_hash
        self._blocks: dict[str, Block] = {root_hash: GENESIS}
        self._children: dict[str, list[str]] = {root_hash: []}
        self._depths: dict[str, int] = {root_hash: 0}
        self._parents: dict[str, str] = {root_hash: ""}
        self._slots: dict[str, int] = {root_hash: GENESIS_SLOT}
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

    def can_accept(self, block: Block) -> bool:
        """Structural validity: known parent, strictly increasing slot."""
        parent_slot = self._slots.get(block.parent_hash)
        return parent_slot is not None and block.slot > parent_slot

    def add_block(self, block: Block) -> bool:
        """Insert a structurally valid block; idempotent.

        Returns ``True`` when the block is (now) present, ``False`` when
        rejected (unknown parent or non-increasing slot).
        """
        block_hash = block.block_hash
        if block_hash in self._blocks:
            return True
        if not self.can_accept(block):
            return False
        self._blocks[block_hash] = block
        self._children[block_hash] = []
        self._children[block.parent_hash].append(block_hash)
        depth = self._depths[block.parent_hash] + 1
        self._depths[block_hash] = depth
        self._parents[block_hash] = block.parent_hash
        self._slots[block_hash] = block.slot
        self._by_depth.setdefault(depth, []).append(block_hash)
        if depth > self._max_depth:
            self._max_depth = depth
        return True

    def tips(self) -> list[str]:
        """Hashes of leaf blocks (chains not extended by anything known)."""
        return [h for h, children in self._children.items() if not children]

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
