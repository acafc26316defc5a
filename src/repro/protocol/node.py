"""Honest longest-chain nodes (the protocol loop of Section 2).

Each honest party runs the elementary algorithm verbatim: *"In each
round, each participant collects all valid blockchains from the network;
if a participant is a leader in the round, he adds a block to the longest
chain and broadcasts the result."*

A node keeps its own :class:`~repro.protocol.block.BlockTree`, validates
incoming blocks (structure, signature, leader eligibility), tracks
arrival order (which feeds the A0 tie-breaking rule), remembers its
currently adopted tip (which A0 prefers on rank ties), and mints blocks
on the selected chain when elected.

A node judges a received block through one callback, ``validate``,
covering the signature and the VRF eligibility; :func:`validity_check`
builds the plain form, as an independent deployment would run it.
:class:`~repro.protocol.simulation.Simulation` instead gives every node
the same memoised check, so each distinct block is verified once per
run, and one shared :class:`~repro.protocol.block.BlockIndex`, so each
block's parent, slot and depth are stored once; a node's tree keeps
only its membership and depth buckets, and the node its arrival ranks.
Results are identical either way.  A node inserts its own minted block
when it mints it; the network does not loop the broadcast back.

Chain selection runs only when the node's tree changed since the last
one: the tree, the arrival ranks and the adopted tip are
:func:`~repro.protocol.tiebreak.select_chain`'s only inputs, and a
selection whose tip is the adopted tip returns that tip again.  Minting
leaves the selection clean: the minted block extends the adopted tip, a
longest one, so it is the one longest tip.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.protocol.block import Block, BlockIndex, BlockTree, signed
from repro.protocol.crypto import IdealSignatureScheme, KeyPair
from repro.protocol.tiebreak import TieBreakRule, select_chain

#: Callback checking leader eligibility: (issuer key, slot, proof) → bool.
EligibilityCheck = Callable[[str, int, str], bool]

#: Callback judging a received block: signature and leader eligibility.
ValidityCheck = Callable[[Block], bool]


def validity_check(
    signatures: IdealSignatureScheme, check_eligibility: EligibilityCheck
) -> ValidityCheck:
    """A block's intrinsic validity: not a second genesis, signed by its
    issuer, and carrying a winning VRF proof for its slot."""

    def validate(block: Block) -> bool:
        return (
            block.parent_hash != ""
            and signatures.verify(block.issuer, block.header(), block.signature)
            and check_eligibility(block.issuer, block.slot, block.vrf_proof)
        )

    return validate


class HonestNode:
    """One honest participant: validates, selects, extends, broadcasts."""

    def __init__(
        self,
        name: str,
        keypair: KeyPair,
        signatures: IdealSignatureScheme,
        tie_break: TieBreakRule,
        validate: ValidityCheck,
        index: BlockIndex | None = None,
    ) -> None:
        self.name = name
        self.keypair = keypair
        self.signatures = signatures
        self.tie_break = tie_break
        self.validate = validate
        self.tree = BlockTree(index)
        self._arrival_rank: dict[str, int] = {self.tree.genesis_hash: 0}
        #: The adopted chain's tip after the last selection (axiom A0's
        #: "keep your current chain" input; starts at genesis).
        self._current_tip = self.tree.genesis_hash
        #: Whether the tree gained a block since the last selection.
        self._changed = False
        #: Blocks whose parents have not arrived yet (the network is
        #: allowed to reorder, so children can precede parents in a slot).
        self._orphans: list[Block] = []

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------

    def receive(self, block: Block) -> bool:
        """Validate and store one incoming block.

        Returns ``True`` when the block (or a previously orphaned
        descendant chain) was added.  Invalid blocks — bad signature or
        ineligible issuer — are dropped, never orphaned.
        """
        if not self.validate(block):
            return False
        if not self._insert(block):
            self._orphans.append(block)
            return False
        if self._orphans:
            self._drain_orphans()
        return True

    def _insert(self, block: Block) -> bool:
        """Store a block if the tree accepts it; ``True`` when present.

        A new block takes the next arrival rank and marks the tree
        changed; a repeat keeps its first rank.
        """
        block_hash = block.block_hash
        tree = self.tree
        if block_hash in tree:
            return True
        if not tree.add_block(block):
            return False
        self._arrival_rank[block_hash] = len(self._arrival_rank)
        self._changed = True
        return True

    def _drain_orphans(self) -> None:
        progress = True
        while progress:
            progress = False
            for orphan in list(self._orphans):
                if self._insert(orphan):
                    self._orphans.remove(orphan)
                    progress = True

    # ------------------------------------------------------------------
    # chain selection and block production
    # ------------------------------------------------------------------

    def best_tip(self) -> str:
        """The adopted chain's tip under LCR + the node's tie-break rule."""
        if self._changed:
            self._changed = False
            self._current_tip = select_chain(
                self.tree, self.tie_break, self._arrival_rank, self._current_tip
            )
        return self._current_tip

    def mint_block(self, slot: int, vrf_proof: str, payload: str = "") -> Block:
        """Create and sign a block extending the adopted chain."""
        draft = Block(
            slot=slot,
            parent_hash=self.best_tip(),
            issuer=self.keypair.public,
            payload=payload,
            vrf_proof=vrf_proof,
        )
        block = signed(
            draft, lambda header: self.signatures.sign(self.keypair, header)
        )
        # A leader adopts its own block immediately; the selection just
        # made stays clean, as the block is the one longest tip.
        self._insert(block)
        self._changed = False
        self._current_tip = block.block_hash
        return block
