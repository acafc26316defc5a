"""Protocol-level adversary strategies (the attacker the model quantifies over).

An adversary in this simulation owns the corrupted parties' keys, sees
every honest block the moment it is broadcast (rushing), fully controls
per-recipient delivery order and (up to Δ) delay, and may extend any
chain it knows with blocks for slots where a corrupted party is elected.

Strategies provided:

* :class:`NullAdversary` — does nothing; the honest baseline.
* :class:`PrivateChainAdversary` — the classic settlement attack: fork
  privately before a target slot, extend in secret with every corrupted
  win, release when the private chain can compete at depth ≥ k.
* :class:`SplitAdversary` — exploits multiply honest slots under
  adversarial tie-breaking (axiom A0): delivers concurrent honest blocks
  in opposite orders to two halves of the network, keeping two equal
  branches alive without spending any adversarial block.  Under the
  consistent rule A0′ the same schedule is harmless — the Theorem 2
  ablation.
"""

from __future__ import annotations

from repro.protocol.block import Block, BlockTree, signed
from repro.protocol.crypto import IdealSignatureScheme, KeyPair
from repro.protocol.leader import Party
from repro.protocol.network import NetworkModel


class Adversary:
    """Base strategy: observes everything, does nothing.

    The simulation calls, in slot order:

    1. :meth:`observe_block` for every block created in the slot (honest
       blocks arrive here before any honest party sees them — rushing);
    2. :meth:`honest_delays` to choose delays/ordering for each honest
       broadcast (the network clamps delays to [0, Δ]);
    3. :meth:`act` after honest production, with the corrupted parties
       elected this slot — the strategy mints and injects here.
    """

    def __init__(self) -> None:
        self.tree = BlockTree()
        self.signatures: IdealSignatureScheme | None = None
        self.keys: dict[str, KeyPair] = {}
        self.recipients: list[str] = []

    def attach(
        self,
        signatures: IdealSignatureScheme,
        keys: dict[str, KeyPair],
        recipients: list[str],
    ) -> None:
        """Wire the strategy to the simulation's primitives."""
        self.signatures = signatures
        self.keys = keys
        self.recipients = list(recipients)

    def observe_block(self, block: Block) -> None:
        """Rushing: record a block the instant it exists."""
        self.tree.add_block(block)

    def honest_delays(
        self, slot: int, block: Block
    ) -> tuple[dict[str, int], dict[str, int]]:
        """``(delays, priorities)`` per recipient for one honest broadcast."""
        return {}, {}

    def act(
        self,
        slot: int,
        corrupted_leaders: list[tuple[Party, str]],
        network: NetworkModel,
    ) -> None:
        """Mint and inject adversarial blocks (default: none)."""

    # ------------------------------------------------------------------

    def _mint(
        self, party: Party, slot: int, parent_hash: str, vrf_proof: str
    ) -> tuple[Block, str]:
        """Create a signed adversarial block on an arbitrary parent.

        Returns ``(block, block_hash)``.
        """
        assert self.signatures is not None, "adversary not attached"
        keypair = self.keys[party.name]
        draft = Block(
            slot=slot,
            parent_hash=parent_hash,
            issuer=keypair.public,
            payload=f"adv:{party.name}",
            vrf_proof=vrf_proof,
        )
        block = signed(
            draft, lambda header: self.signatures.sign(keypair, header)
        )
        self.tree.add_block(block)
        return block, block.block_hash


class NullAdversary(Adversary):
    """No adversarial blocks, immediate honest delivery."""


class PrivateChainAdversary(Adversary):
    """Fork privately before ``target_slot``; release when competitive.

    Parameters
    ----------
    target_slot:
        The slot whose settlement is attacked (a transaction in this
        slot's block is the double-spend victim).
    patience:
        Maximum slots after the target to keep extending privately; the
        chain is released as soon as it leads the public height by
        ``lead``, or abandoned (released anyway, for observability) when
        patience runs out.
    lead:
        Required advantage over the public chain before release.  The
        default 1 forces every honest node to reorganise; 0 releases on
        ties, which only bites observers whose tie-break the adversary
        controls.
    hold:
        Minimum number of slots past the target before releasing — the
        double-spend must outwait the victim's confirmation depth k, or
        the reorg happens before anyone relied on the target block and
        no k-settlement violation occurs.  Set this to the attacked k.
    """

    def __init__(
        self,
        target_slot: int,
        patience: int = 50,
        lead: int = 1,
        hold: int = 0,
    ) -> None:
        super().__init__()
        self.target_slot = target_slot
        self.patience = patience
        self.lead = lead
        self.hold = hold
        self._fork_point: str | None = None
        self._private_tip: str | None = None
        self._released = False

    def act(
        self,
        slot: int,
        corrupted_leaders: list[tuple[Party, str]],
        network: NetworkModel,
    ) -> None:
        # A chain carries at most one block per slot (axiom A2/F2), so only
        # the first corrupted leader of a slot can extend a given chain.
        extender = corrupted_leaders[0] if corrupted_leaders else None

        if self._released:
            # After release, behave greedily: extend the longest chain
            # (longest_tips lists maximal-depth tips in insertion order,
            # so the first entry is the earliest-observed longest chain).
            if extender is not None:
                party, proof = extender
                tip = self.tree.longest_tips()[0]
                block, _ = self._mint(party, slot, tip, proof)
                for recipient in self.recipients:
                    network.inject(block, recipient, slot)
            return

        if slot >= self.target_slot and self._fork_point is None:
            self._fork_point = self._public_block_before_target()
            self._private_tip = self._fork_point

        if self._fork_point is not None and extender is not None:
            party, proof = extender
            assert self._private_tip is not None
            _block, self._private_tip = self._mint(
                party, slot, self._private_tip, proof
            )

        if self._should_release(slot):
            self._release(slot, network)

    def _public_block_before_target(self) -> str:
        """Deepest observed block strictly before the target slot."""
        return max(
            (
                h
                for h in self.tree.hashes()
                if self.tree.slot_of(h) < self.target_slot
            ),
            key=self.tree.depth,
        )

    def _public_height(self) -> int:
        """Height of the observed network excluding the private branch."""
        private: set[str] = set()
        cursor = self._private_tip
        while cursor is not None and cursor != self._fork_point:
            private.add(cursor)
            cursor = self.tree.parent_of(cursor)
        return max(
            self.tree.depth(h)
            for h in self.tree.hashes()
            if h not in private
        )

    def _should_release(self, slot: int) -> bool:
        if self._private_tip is None or self._private_tip == self._fork_point:
            return False
        if slot < self.target_slot + self.hold:
            return False
        private_depth = self.tree.depth(self._private_tip)
        if private_depth >= self._public_height() + self.lead:
            return True
        return slot >= self.target_slot + self.patience

    def _release(self, slot: int, network: NetworkModel) -> None:
        """Publish the private branch, rushing ahead of honest messages."""
        chain: list[str] = []
        cursor = self._private_tip
        while cursor is not None and cursor != self._fork_point:
            chain.append(cursor)
            cursor = self.tree.parent_of(cursor)
        for recipient in self.recipients:
            for block_hash in reversed(chain):
                network.inject(self.tree.block(block_hash), recipient, slot)
        self._released = True


class MaxDelayAdversary(Adversary):
    """Delay every honest broadcast by the full Δ budget (Section 8).

    The simplest Δ-synchronous stressor: late delivery manufactures
    de-facto concurrent honest leaders (an honest leader within Δ of a
    predecessor does not see its block), which is exactly the effect the
    reduction map ρ_Δ charges to the adversary.
    """

    def honest_delays(
        self, slot: int, block: Block
    ) -> tuple[dict[str, int], dict[str, int]]:
        assert self.signatures is not None, "adversary not attached"
        delta = self.max_delay
        return {recipient: delta for recipient in self.recipients}, {}

    def __init__(self, max_delay: int) -> None:
        super().__init__()
        self.max_delay = max_delay


class SplitAdversary(Adversary):
    """Keep the network split using concurrent honest blocks and A0 ordering.

    Recipients are partitioned into two groups.  When a slot produces two
    or more honest blocks (a multiply honest slot), group 0 receives one
    block first and group 1 a different one first; under the
    first-arrival tie-breaking rule each group then extends its own
    branch.  No adversarial stake is needed — this is exactly the
    phenomenon that makes ``p_H`` appear *negatively* in the Praos-style
    threshold ``p_h − p_H > p_A``, and the attack that the consistent
    rule A0′ (Theorem 2) neutralises.

    ``max_delay`` additionally holds every honest broadcast back by that
    many slots, composing the split schedule with the Section 8 delay
    stressor — the protocol sweep grid uses this to cross A0/A0′ with Δ.
    It must not exceed the network's Δ budget: the network *enforces*
    A4Δ rather than trusting adversary implementations, so an
    out-of-budget delay raises at broadcast time (as with
    :class:`MaxDelayAdversary`).
    """

    def __init__(self, max_delay: int = 0) -> None:
        super().__init__()
        if max_delay < 0:
            raise ValueError(f"max_delay must be non-negative, got {max_delay}")
        self.max_delay = max_delay
        self._slot_blocks: dict[int, list[str]] = {}

    def observe_block(self, block: Block) -> None:
        block_hash = block.block_hash
        self.tree.add_block(block)
        hashes = self._slot_blocks.setdefault(block.slot, [])
        if block_hash not in hashes:
            hashes.append(block_hash)

    def honest_delays(
        self, slot: int, block: Block
    ) -> tuple[dict[str, int], dict[str, int]]:
        """Order concurrent honest blocks oppositely for the two halves."""
        peers = self._slot_blocks.get(slot, [])
        block_hash = block.block_hash
        try:
            index = next(i for i, h in enumerate(peers) if h == block_hash)
        except StopIteration:
            index = 0
        half = len(self.recipients) // 2
        priorities: dict[str, int] = {}
        for position, recipient in enumerate(self.recipients):
            group = 0 if position < half else 1
            # Group 0 sees even-indexed blocks first, group 1 odd-indexed.
            favoured = (index % 2) == group
            priorities[recipient] = 0 if favoured else 1
        delays = (
            {recipient: self.max_delay for recipient in self.recipients}
            if self.max_delay
            else {}
        )
        return delays, priorities
