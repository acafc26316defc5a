"""The slot-driven protocol engine and execution measurements.

:class:`Simulation` wires the pieces together — election, honest nodes,
network, adversary — and runs the round structure of Section 2:

1. at the start of slot ``t`` every node ingests the messages the network
   scheduled for it (everything due by ``t − 1``);
2. honest leaders of slot ``t`` mint on their adopted chains and
   broadcast; the rushing adversary observes each block immediately and
   chooses per-recipient delays (≤ Δ) and ordering;
3. the adversary acts: mints with its corrupted wins, injects anything it
   has, to whomever it likes.

:class:`SimulationResult` records every adopted chain per (slot, node)
and exposes the paper's consistency predicates — settlement violations
(Definition 3), k-CP^slot violations (Definition 24) — plus the
execution→fork extraction that converts the run into an abstract fork
``F ⊢ w`` for cross-validation against the combinatorial theory.

Execution modes
---------------

Both modes draw the leader schedule the same way: once per run, as an
eligibility table built by one VRF pass per party over all slots
(:meth:`~repro.protocol.leader.VrfLeaderElection.schedule`), whose
winners' proofs the leaders then mint with.  The modes differ only in
validation, and in both every received block's VRF proof is still
verified against the VRF — the table is the lottery, not a shortcut
around the check.

``shared_validation=False`` (default) is the *reference* cost model:
every node hashes, verifies, and judges eligibility for every block it
receives, exactly as independent deployments would.  With
``shared_validation=True`` — the mode the batched engine workload
(:mod:`repro.engine.protocol`) runs in — those pure functions are
computed once per block and shared across the node set: block hashes
are interned, signature checks and eligibility verdicts memoised, and
redundant adversary observations skipped.  Results are bit-identical in
both modes (asserted by ``tests/protocol/test_determinism.py``, and
pinned to known answers by ``tests/protocol/test_golden.py``); only
wall-clock differs.

Each consistency predicate likewise has two implementations: the public
methods resolve through the block trees' hash indexes with memoised
divergence checks, while the ``*_scalar`` twins preserve the original
chain-walking algorithms (recomputing block hashes along every
comparison, as a verifier would).  The scalar forms are the
cross-validation oracles and the per-run baseline the protocol
throughput benchmark measures against.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from repro.core.alphabet import EMPTY
from repro.core.forks import Fork
from repro.delta.forks import DeltaFork
from repro.protocol.adversary import Adversary, NullAdversary
from repro.protocol.block import GENESIS_SLOT, Block, BlockTree
from repro.protocol.crypto import IdealSignatureScheme, IdealVrf
from repro.protocol.leader import (
    LeaderSchedule,
    StakeDistribution,
    VrfLeaderElection,
    phi,
)
from repro.protocol.network import NetworkModel
from repro.protocol.node import HonestNode
from repro.protocol.tiebreak import TieBreakRule, adversarial_order_rule
from repro.protocol.transport import Transport, TransportConfig, transport_seed


@dataclass
class SlotRecord:
    """What happened in one slot: symbol, minted blocks, adopted tips."""

    slot: int
    symbol: str
    honest_blocks: list[Block] = field(default_factory=list)
    adopted_tips: dict[str, str] = field(default_factory=dict)


class Simulation:
    """A complete configured protocol run."""

    def __init__(
        self,
        stakes: StakeDistribution,
        activity: float,
        total_slots: int,
        delta: int = 0,
        tie_break: TieBreakRule = adversarial_order_rule,
        adversary: Adversary | None = None,
        randomness: str = "epoch-0",
        shared_validation: bool = False,
        transport: TransportConfig | None = None,
    ) -> None:
        self.stakes = stakes
        self.activity = activity
        self.total_slots = total_slots
        self.delta = delta
        self.adversary = adversary if adversary is not None else NullAdversary()
        self.shared_validation = shared_validation

        self.signatures = IdealSignatureScheme(seed=f"sig|{randomness}")
        self.election = VrfLeaderElection(
            stakes, activity, IdealVrf(seed=f"vrf|{randomness}"), randomness
        )
        self._signing_keys = {
            party.name: self.signatures.generate_keypair()
            for party in stakes.parties
        }
        self._public_to_party = {
            keypair.public: name
            for name, keypair in self._signing_keys.items()
        }
        self._party_by_name = {party.name: party for party in stakes.parties}

        # Shared-validation state: pure-function results computed once
        # per block and reused across every node (and every redundant
        # adversary observation).  ``None`` in reference mode.
        self._hash_intern: dict[Block, str] | None = None
        self._signature_results: dict[Block, bool] | None = None
        self._eligibility_results: dict[tuple[str, int, str], bool] | None = None
        self._observed: set[Block] | None = None
        if shared_validation:
            self._hash_intern = {}
            self._signature_results = {}
            self._eligibility_results = {}
            self._observed = set()

        honest_parties = [p for p in stakes.parties if not p.corrupted]
        self.nodes: dict[str, HonestNode] = {
            party.name: HonestNode(
                party.name,
                self._signing_keys[party.name],
                self.signatures,
                tie_break,
                self._check_eligibility,
                verify_signature=(
                    self._verify_block_signature if shared_validation else None
                ),
                hash_block=self._intern_hash if shared_validation else None,
            )
            for party in honest_parties
        }
        # ``transport=None`` keeps the paper's slot-quantized model;
        # a config swaps in the continuous-time WAN, whose jitter seed
        # derives from the same randomness string as the VRF — the
        # schedule stays a pure function of the trial's randomness.
        if transport is None:
            self.network: NetworkModel = NetworkModel(
                list(self.nodes), delta=delta
            )
        else:
            self.network = Transport(
                list(self.nodes),
                delta=delta,
                config=transport,
                seed=transport_seed(randomness),
            )
        self.adversary.attach(
            self.signatures,
            {
                p.name: self._signing_keys[p.name]
                for p in stakes.parties
                if p.corrupted
            },
            list(self.nodes),
        )

    # ------------------------------------------------------------------
    # validation (per-node in reference mode, shared in batched mode)
    # ------------------------------------------------------------------

    def _check_eligibility(self, issuer: str, slot: int, proof: str) -> bool:
        """Verify the issuer's VRF proof and threshold for the slot."""
        cache = self._eligibility_results
        if cache is not None:
            key = (issuer, slot, proof)
            hit = cache.get(key)
            if hit is not None:
                return hit
            result = self._check_eligibility_uncached(issuer, slot, proof)
            cache[key] = result
            return result
        return self._check_eligibility_uncached(issuer, slot, proof)

    def _check_eligibility_uncached(
        self, issuer: str, slot: int, proof: str
    ) -> bool:
        party_name = self._public_to_party.get(issuer)
        if party_name is None:
            return False
        party = self._party_by_name[party_name]
        vrf_key = self.election.keypair(party)
        vrf_input = self.election.vrf_input(slot)
        value = self._proof_value(proof)
        if not self.election.vrf.verify(vrf_key.public, vrf_input, value, proof):
            return False
        threshold = phi(self.activity, self.stakes.relative_stake(party))
        return value < threshold

    def _verify_block_signature(self, block: Block) -> bool:
        """Shared signature check: one header hash + verify per block."""
        assert self._signature_results is not None
        hit = self._signature_results.get(block)
        if hit is None:
            hit = self.signatures.verify(
                block.issuer, block.header(), block.signature
            )
            self._signature_results[block] = hit
        return hit

    def _intern_hash(self, block: Block) -> str:
        """Shared hash: each distinct block is hashed exactly once."""
        assert self._hash_intern is not None
        cached = self._hash_intern.get(block)
        if cached is None:
            cached = block.block_hash
            self._hash_intern[block] = cached
        return cached

    @staticmethod
    def _proof_value(proof: str) -> float:
        from repro.protocol.crypto import _digest_to_unit

        return _digest_to_unit(proof)

    def _observe(self, block: Block) -> None:
        """Adversary observation, deduplicated in shared mode.

        ``observe_block`` is idempotent for every provided strategy
        (block trees and slot registries dedupe by hash), so skipping a
        repeat observation never changes behaviour — it only skips the
        repeated hash computation.
        """
        if self._observed is not None:
            if block in self._observed:
                return
            self._observed.add(block)
        self.adversary.observe_block(block)

    # ------------------------------------------------------------------

    def run(self) -> "SimulationResult":
        """Execute all slots and return the recorded result."""
        schedule = self.election.schedule(self.total_slots)
        records: list[SlotRecord] = []

        for slot in range(1, self.total_slots + 1):
            for name, node in self.nodes.items():
                for block in self.network.due(name, slot - 1):
                    node.receive(block)
                    self._observe(block)

            record = SlotRecord(slot=slot, symbol=schedule.symbol(slot))
            leaders = schedule.leaders(slot)

            honest_blocks: list[Block] = []
            for party in leaders:
                if party.corrupted:
                    continue
                _eligible, _value, proof = self.election.eligibility(party, slot)
                node = self.nodes[party.name]
                block = node.mint_block(slot, proof)
                honest_blocks.append(block)
                self._observe(block)
            for block in honest_blocks:
                delays, priorities = self.adversary.honest_delays(slot, block)
                self.network.broadcast(
                    block,
                    slot,
                    delays,
                    priorities,
                    sender=self._public_to_party.get(block.issuer),
                )

            corrupted_leaders = [
                (party, self.election.eligibility(party, slot)[2])
                for party in leaders
                if party.corrupted
            ]
            self.adversary.act(slot, corrupted_leaders, self.network)

            record.honest_blocks = honest_blocks
            record.adopted_tips = {
                name: node.best_tip() for name, node in self.nodes.items()
            }
            records.append(record)

        # Final drain so end-of-run views include the last slot's
        # messages.  The network names the slot: ``total + Δ`` for the
        # slot model, its scheduling horizon for the transport (physical
        # transit may legitimately outlast the Δ budget).
        final_slot = self.network.final_drain_slot(self.total_slots)
        for name, node in self.nodes.items():
            for block in self.network.due(name, final_slot):
                node.receive(block)

        return SimulationResult(self, schedule, records)


@dataclass(frozen=True)
class DelayDistribution:
    """Summary of the realized per-message honest delivery delays.

    The sample is every honest broadcast delivery to a party other than
    the sender: the adversarial hold in the slot model, hold + physical
    transit under a :class:`~repro.protocol.transport.Transport`.  The
    ``exceedance_rate`` is the fraction of deliveries whose realized
    delay exceeds the configured Δ — zero by construction in the slot
    model (the A4Δ deadline is enforced), and the measured "effective-Δ
    overshoot" on a WAN where physics is not budget-bound.
    """

    count: int
    mean: float
    p50: float
    p90: float
    p99: float
    maximum: float
    delta: int
    exceedance_rate: float


class SimulationResult:
    """Recorded execution with the paper's consistency measurements.

    Every predicate exists twice: the public method (hash-index walks,
    memoised pair checks, snapshot deduplication — the engine path) and
    a ``*_scalar`` twin that preserves the original chain-walking
    algorithm, recomputing block hashes along every comparison.  The
    pairs are asserted equal on adversarial executions by
    ``tests/protocol/test_determinism.py``; benchmarks measure the
    batched path against the scalar one.
    """

    def __init__(
        self,
        simulation: Simulation,
        schedule: LeaderSchedule,
        records: list[SlotRecord],
    ) -> None:
        self.simulation = simulation
        self.schedule = schedule
        self.records = records
        #: (tip_a, tip_b, target_slot) → divergence verdict.  A block
        #: hash pins its whole prefix, so the verdict is a pure function
        #: of the two hash chains — tree-independent and safely shared
        #: across records and node pairs.
        self._diverge_cache: dict[tuple[str, str, int], bool] = {}
        #: tip hash → (slots, hashes, hash set) along its chain; chains
        #: are immutable and identical in every tree containing the tip.
        self._tip_index: dict[str, tuple[list[int], list[str], frozenset]] = {}
        self._reorg_cache: dict[tuple[str, str], int] = {}

    @property
    def characteristic_string(self) -> str:
        """The execution's characteristic string (Definitions 1/20)."""
        return self.schedule.characteristic_string()

    def union_tree(self) -> BlockTree:
        """All blocks any honest node ever accepted (the public record).

        Slots strictly increase along chains, so inserting the deduped
        block set in slot order adds every block whose full ancestry was
        accepted — one pass instead of the quadratic retry loop.
        """
        union = BlockTree()
        unique: set[Block] = set()
        for node in self.simulation.nodes.values():
            unique.update(node.tree.all_blocks())
        for block in sorted(
            (b for b in unique if b.parent_hash != ""),
            key=lambda b: (b.slot, b.block_hash),
        ):
            union.add_block(block)
        return union

    # ------------------------------------------------------------------
    # consistency predicates — batched (hash-index) implementations
    # ------------------------------------------------------------------

    def settlement_violation(self, target_slot: int, depth: int) -> bool:
        """Did any honest observer at time ≥ target+depth see history before
        ``target_slot`` change or disagree? (Definition 3, operationally.)

        Two witnesses count: (a) two honest nodes' adopted chains at the
        same slot ``t ≥ target + depth`` diverging before ``target_slot``;
        (b) one node's adopted chain at ``t₂ > t₁ ≥ target + depth``
        diverging before ``target_slot`` from its chain at ``t₁`` (a deep
        reorg past the confirmation depth).

        Identical tip snapshots (the common case once chains stabilise)
        are checked once; each distinct (tip, tip) divergence is resolved
        once via the trees' parent index and memoised.
        """
        interesting = [
            r for r in self.records if r.slot >= target_slot + depth
        ]
        trees = {
            name: node.tree for name, node in self.simulation.nodes.items()
        }
        seen_snapshots: set[tuple] = set()
        for record in interesting:
            snapshot = tuple(record.adopted_tips.items())
            if snapshot in seen_snapshots:
                continue
            seen_snapshots.add(snapshot)
            for i, (name_a, tip_a) in enumerate(snapshot):
                tree = trees[name_a]
                for _name_b, tip_b in snapshot[i + 1 :]:
                    if self._diverge_before(tree, tip_a, tip_b, target_slot):
                        return True
        for name, tree in trees.items():
            previous: str | None = None
            for record in interesting:
                tip = record.adopted_tips[name]
                if (
                    previous is not None
                    and previous != tip
                    and self._diverge_before(tree, previous, tip, target_slot)
                ):
                    return True
                previous = tip
        return False

    def _diverge_before(
        self, tree: BlockTree, tip_a: str, tip_b: str, slot: int
    ) -> bool:
        if tip_a == tip_b:
            return False
        if tip_a not in tree or tip_b not in tree:
            return False
        key = (tip_a, tip_b, slot)
        cached = self._diverge_cache.get(key)
        if cached is not None:
            return cached
        meet = tree.common_prefix_slot(tip_a, tip_b)
        prefix_a = tree.prefix_hash_at_slot(tip_a, slot)
        prefix_b = tree.prefix_hash_at_slot(tip_b, slot)
        verdict = meet < slot and prefix_a != prefix_b
        self._diverge_cache[key] = verdict
        return verdict

    def cp_slot_violation(self, depth: int) -> bool:
        """k-CP^slot check across nodes and across time (Definition 24)."""
        trees = {
            name: node.tree for name, node in self.simulation.nodes.items()
        }
        for record in self.records:
            cutoff = record.slot - depth
            if cutoff <= 0:
                continue
            tips = list(record.adopted_tips.items())
            for i, (name_a, tip_a) in enumerate(tips):
                tree = trees[name_a]
                for name_b, tip_b in tips:
                    if name_a == name_b:
                        continue
                    if tip_b not in tree or tip_a not in tree:
                        continue
                    if not self._is_slot_prefix(tree, tip_a, cutoff, tip_b):
                        return True
        for name, tree in trees.items():
            previous: str | None = None
            previous_slot = 0
            for record in self.records:
                tip = record.adopted_tips[name]
                cutoff = previous_slot - depth
                if previous is not None and cutoff > 0:
                    if not self._is_slot_prefix(tree, previous, cutoff, tip):
                        return True
                previous, previous_slot = tip, record.slot
        return False

    def _chain_index(
        self, tree: BlockTree, tip: str
    ) -> tuple[list[int], list[str], frozenset]:
        entry = self._tip_index.get(tip)
        if entry is None:
            hashes = tree.chain_hashes(tip)
            slots = [tree.slot_of(h) for h in hashes]
            entry = (slots, hashes, frozenset(hashes))
            self._tip_index[tip] = entry
        return entry

    def _is_slot_prefix(
        self, tree: BlockTree, tip_a: str, cutoff: int, tip_b: str
    ) -> bool:
        """Is ``chain(tip_a)[0 : cutoff]`` a prefix of ``chain(tip_b)``?

        The anchor lookup is a bisection over the chain's (sorted) slot
        labels; membership is a set probe — both on per-tip indexes
        built once per distinct tip.
        """
        slots_a, hashes_a, _ = self._chain_index(tree, tip_a)
        anchor = hashes_a[bisect_right(slots_a, cutoff) - 1]
        _slots_b, _hashes_b, members_b = self._chain_index(tree, tip_b)
        return anchor in members_b

    def max_reorg_depth(self) -> int:
        """Deepest observed chain reorganisation (blocks discarded)."""
        deepest = 0
        trees = {
            name: node.tree for name, node in self.simulation.nodes.items()
        }
        for name, tree in trees.items():
            previous: str | None = None
            for record in self.records:
                tip = record.adopted_tips[name]
                if (
                    previous is not None
                    and previous != tip
                    and previous in tree
                    and tip in tree
                ):
                    key = (previous, tip)
                    discarded = self._reorg_cache.get(key)
                    if discarded is None:
                        meet_slot = tree.common_prefix_slot(previous, tip)
                        meet_hash = tree.prefix_hash_at_slot(previous, meet_slot)
                        discarded = tree.depth(previous) - tree.depth(meet_hash)
                        self._reorg_cache[key] = discarded
                    deepest = max(deepest, discarded)
                previous = tip
        return deepest

    # ------------------------------------------------------------------
    # consistency predicates — scalar oracles (the reference algorithms)
    # ------------------------------------------------------------------

    @staticmethod
    def _common_prefix_slot_scalar(tree: BlockTree, first: str, second: str) -> int:
        """Original algorithm: materialise both chains, compare by hash."""
        chain_a = tree.chain(first)
        chain_b = tree.chain(second)
        last_common = GENESIS_SLOT
        for block_a, block_b in zip(chain_a, chain_b):
            if block_a.block_hash != block_b.block_hash:
                break
            last_common = block_a.slot
        return last_common

    @staticmethod
    def _prefix_hash_at_slot_scalar(
        tree: BlockTree, block_hash: str, slot: int
    ) -> str:
        """Original algorithm: walk the chain from genesis, rehashing."""
        chosen = tree.genesis_hash
        for block in tree.chain(block_hash):
            if block.slot <= slot:
                chosen = block.block_hash
            else:
                break
        return chosen

    def _diverge_before_scalar(
        self, tree: BlockTree, tip_a: str, tip_b: str, slot: int
    ) -> bool:
        if tip_a == tip_b:
            return False
        if tip_a not in tree or tip_b not in tree:
            return False
        meet = self._common_prefix_slot_scalar(tree, tip_a, tip_b)
        prefix_a = self._prefix_hash_at_slot_scalar(tree, tip_a, slot)
        prefix_b = self._prefix_hash_at_slot_scalar(tree, tip_b, slot)
        return meet < slot and prefix_a != prefix_b

    def settlement_violation_scalar(self, target_slot: int, depth: int) -> bool:
        """Reference implementation of :meth:`settlement_violation`."""
        interesting = [
            r for r in self.records if r.slot >= target_slot + depth
        ]
        trees = {
            name: node.tree for name, node in self.simulation.nodes.items()
        }
        for record in interesting:
            tips = list(record.adopted_tips.items())
            for i, (name_a, tip_a) in enumerate(tips):
                for _name_b, tip_b in tips[i + 1 :]:
                    if self._diverge_before_scalar(
                        trees[name_a], tip_a, tip_b, target_slot
                    ):
                        return True
        for name in trees:
            previous: str | None = None
            for record in interesting:
                tip = record.adopted_tips[name]
                if previous is not None and self._diverge_before_scalar(
                    trees[name], previous, tip, target_slot
                ):
                    return True
                previous = tip
        return False

    def _is_slot_prefix_scalar(
        self, tree: BlockTree, tip_a: str, cutoff: int, tip_b: str
    ) -> bool:
        anchor = self._prefix_hash_at_slot_scalar(tree, tip_a, cutoff)
        chain_b = {block.block_hash for block in tree.chain(tip_b)}
        return anchor in chain_b

    def cp_slot_violation_scalar(self, depth: int) -> bool:
        """Reference implementation of :meth:`cp_slot_violation`."""
        trees = {
            name: node.tree for name, node in self.simulation.nodes.items()
        }
        for record in self.records:
            cutoff = record.slot - depth
            if cutoff <= 0:
                continue
            tips = list(record.adopted_tips.items())
            for i, (name_a, tip_a) in enumerate(tips):
                tree = trees[name_a]
                for name_b, tip_b in tips:
                    if name_a == name_b:
                        continue
                    if tip_b not in tree or tip_a not in tree:
                        continue
                    if not self._is_slot_prefix_scalar(
                        tree, tip_a, cutoff, tip_b
                    ):
                        return True
        for name, tree in trees.items():
            previous: str | None = None
            previous_slot = 0
            for record in self.records:
                tip = record.adopted_tips[name]
                cutoff = previous_slot - depth
                if previous is not None and cutoff > 0:
                    if not self._is_slot_prefix_scalar(
                        tree, previous, cutoff, tip
                    ):
                        return True
                previous, previous_slot = tip, record.slot
        return False

    def max_reorg_depth_scalar(self) -> int:
        """Reference implementation of :meth:`max_reorg_depth`."""
        deepest = 0
        trees = {
            name: node.tree for name, node in self.simulation.nodes.items()
        }
        for name, tree in trees.items():
            previous: str | None = None
            for record in self.records:
                tip = record.adopted_tips[name]
                if previous is not None and previous in tree and tip in tree:
                    meet_slot = self._common_prefix_slot_scalar(
                        tree, previous, tip
                    )
                    meet_hash = self._prefix_hash_at_slot_scalar(
                        tree, previous, meet_slot
                    )
                    discarded = tree.depth(previous) - tree.depth(meet_hash)
                    deepest = max(deepest, discarded)
                previous = tip
        return deepest

    # ------------------------------------------------------------------
    # network observables
    # ------------------------------------------------------------------

    def delay_distribution(self) -> DelayDistribution:
        """Quantiles + effective-Δ exceedance of realized honest delays.

        An empty sample (no honest broadcast reached another party)
        collapses to all-zero statistics."""
        sample = self.simulation.network.realized_delays
        delta = self.simulation.delta
        if not sample:
            return DelayDistribution(0, 0.0, 0.0, 0.0, 0.0, 0.0, delta, 0.0)
        delays = np.asarray(sample, dtype=np.float64)
        p50, p90, p99 = np.quantile(delays, (0.5, 0.9, 0.99))
        return DelayDistribution(
            count=int(delays.size),
            mean=float(delays.mean()),
            p50=float(p50),
            p90=float(p90),
            p99=float(p99),
            maximum=float(delays.max()),
            delta=delta,
            exceedance_rate=float((delays > delta).mean()),
        )

    # ------------------------------------------------------------------
    # execution → abstract fork
    # ------------------------------------------------------------------

    def execution_fork(self) -> Fork:
        """Convert the public record into a fork ``F ⊢ w`` (or Δ-fork).

        Every block any honest node accepted becomes a vertex labelled by
        its slot.  The tests validate the result against axioms F1–F4
        (F4Δ when Δ > 0), closing the loop between the executable
        protocol and the combinatorial model.
        """
        word = self.characteristic_string
        union = self.union_tree()
        if self.simulation.delta > 0:
            fork: Fork = DeltaFork(word, self.simulation.delta)
        else:
            fork = Fork(word)
        by_hash = {union.genesis_hash: fork.root}
        blocks = sorted(
            (b for b in union.all_blocks() if b.parent_hash != ""),
            key=lambda b: (b.slot, b.block_hash),
        )
        for block in blocks:
            parent_vertex = by_hash[block.parent_hash]
            by_hash[block.block_hash] = fork.add_vertex(
                parent_vertex, block.slot
            )
        return fork
