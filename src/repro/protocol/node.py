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

By default a node performs its own signature checks, as an independent
deployment would.  :class:`~repro.protocol.simulation.Simulation`
injects a ``verify_signature`` callback that shares that pure function
across the whole node set; results are identical either way.

Chain selection runs only when the node's tree changed since the last
one: the tree, the arrival ranks and the adopted tip are
:func:`~repro.protocol.tiebreak.select_chain`'s only inputs, and a
selection whose tip is the adopted tip returns that tip again.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.protocol.block import Block, BlockTree, signed
from repro.protocol.crypto import IdealSignatureScheme, KeyPair
from repro.protocol.tiebreak import TieBreakRule, select_chain

#: Callback checking leader eligibility: (issuer key, slot, proof) → bool.
EligibilityCheck = Callable[[str, int, str], bool]


class HonestNode:
    """One honest participant: validates, selects, extends, broadcasts."""

    def __init__(
        self,
        name: str,
        keypair: KeyPair,
        signatures: IdealSignatureScheme,
        tie_break: TieBreakRule,
        check_eligibility: EligibilityCheck,
        verify_signature: Callable[[Block], bool] | None = None,
    ) -> None:
        self.name = name
        self.keypair = keypair
        self.signatures = signatures
        self.tie_break = tie_break
        self.check_eligibility = check_eligibility
        self._verify_signature = verify_signature
        self.tree = BlockTree()
        self._arrival_rank: dict[str, int] = {self.tree.genesis_hash: 0}
        self._arrival_counter = 0
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
        if not self._is_intrinsically_valid(block):
            return False
        if not self.tree.can_accept(block):
            self._orphans.append(block)
            return False
        self._insert(block)
        if self._orphans:
            self._drain_orphans()
        return True

    def _is_intrinsically_valid(self, block: Block) -> bool:
        if block.parent_hash == "":
            return False  # a second genesis is never valid
        if self._verify_signature is not None:
            if not self._verify_signature(block):
                return False
        elif not self.signatures.verify(
            block.issuer, block.header(), block.signature
        ):
            return False
        return self.check_eligibility(block.issuer, block.slot, block.vrf_proof)

    def _insert(self, block: Block) -> str:
        """Store an acceptable block; only a new one marks the tree changed."""
        block_hash = block.block_hash
        if block_hash in self.tree:
            self._arrival_counter += 1  # a repeat keeps its first rank
        elif self.tree.add_block(block):
            self._arrival_counter += 1
            self._arrival_rank[block_hash] = self._arrival_counter
            self._changed = True
        return block_hash

    def _drain_orphans(self) -> None:
        progress = True
        while progress:
            progress = False
            for orphan in list(self._orphans):
                if self.tree.can_accept(orphan):
                    self._orphans.remove(orphan)
                    self._insert(orphan)
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
        # A leader adopts its own block immediately.
        self._current_tip = self._insert(block)
        return block
