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

Validation
----------

The leader schedule is drawn once per run, as an eligibility table
built by one VRF pass per party over all slots
(:meth:`~repro.protocol.leader.VrfLeaderElection.schedule`), whose
winners' proofs the leaders then mint with.  Every received block's VRF
proof is still verified against the VRF — the table is the lottery, not
a shortcut around the check.

The checks a node runs on a received block are pure functions of the
block, so the simulation computes each once per block and shares it
across the node set: signature checks are memoised by ``(block hash,
signature)`` (the hash does not cover the signature), eligibility
verdicts by ``(issuer, slot, proof)``, and redundant adversary
observations skipped by block hash.  Each block caches its own hash, so
no table is keyed by ``Block`` objects.  Pinned executions
(``tests/protocol/test_golden.py``) and the mode-equivalence tests
(``tests/protocol/test_determinism.py``) replay runs with per-node
checks and no memo, and require bit-identical results.

A slot costs what its events cost: only recipients with a message due
are drained (:meth:`~repro.protocol.network.NetworkModel.ready`), only
nodes whose tree changed reselect their chain, and a slot in which no
tip moved shares the previous record's ``adopted_tips`` dict.

The consistency predicates resolve through the block trees' hash
indexes with memoised per-tip prefixes and chain indexes; the
chain-walking reference algorithms they are checked against live in
``tests/protocol/test_determinism.py``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from repro.core.alphabet import EMPTY
from repro.core.forks import Fork
from repro.delta.forks import DeltaFork
from repro.protocol.adversary import Adversary, NullAdversary
from repro.protocol.block import Block, BlockTree
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
    """What happened in one slot: symbol, minted blocks, adopted tips.

    Consecutive records whose tips did not move share one
    ``adopted_tips`` dict, so treat it as read-only.
    """

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
        transport: TransportConfig | None = None,
    ) -> None:
        self.stakes = stakes
        self.activity = activity
        self.total_slots = total_slots
        self.delta = delta
        self.adversary = adversary if adversary is not None else NullAdversary()

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
        # adversary observation).
        self._signature_results: dict[tuple[str, str], bool] = {}
        self._eligibility_results: dict[tuple[str, int, str], bool] = {}
        self._observed: set[str] = set()

        honest_parties = [p for p in stakes.parties if not p.corrupted]
        self.nodes: dict[str, HonestNode] = {
            party.name: HonestNode(
                party.name,
                self._signing_keys[party.name],
                self.signatures,
                tie_break,
                self._check_eligibility,
                verify_signature=self._verify_block_signature,
            )
            for party in honest_parties
        }
        # ``transport=None`` keeps the paper's slot-quantized model;
        # a config adds WAN transit times, whose jitter seed
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
    # validation, shared across the node set
    # ------------------------------------------------------------------

    def _check_eligibility(self, issuer: str, slot: int, proof: str) -> bool:
        """Verify the issuer's VRF proof and threshold for the slot."""
        key = (issuer, slot, proof)
        hit = self._eligibility_results.get(key)
        if hit is None:
            hit = self._check_eligibility_uncached(issuer, slot, proof)
            self._eligibility_results[key] = hit
        return hit

    def _check_eligibility_uncached(
        self, issuer: str, slot: int, proof: str
    ) -> bool:
        party_name = self._public_to_party.get(issuer)
        if party_name is None:
            return False
        party = self._party_by_name[party_name]
        # The proof is outside input, so it is compared, never parsed:
        # the value comes from the VRF's own output.
        value, expected = self.election.vrf.evaluate(
            self.election.keypair(party), self.election.vrf_input(slot)
        )
        if proof != expected:
            return False
        threshold = phi(self.activity, self.stakes.relative_stake(party))
        return value < threshold

    def _verify_block_signature(self, block: Block) -> bool:
        """Shared signature check: one verify per (block, signature)."""
        key = (block.block_hash, block.signature)
        hit = self._signature_results.get(key)
        if hit is None:
            hit = self.signatures.verify(
                block.issuer, block.header(), block.signature
            )
            self._signature_results[key] = hit
        return hit

    def _observe(self, block: Block) -> None:
        """Adversary observation, once per distinct block.

        ``observe_block`` is idempotent for every provided strategy
        (block trees and slot registries dedupe by hash), so skipping a
        repeat observation never changes behaviour — it only skips the
        repeated tree insert.
        """
        block_hash = block.block_hash
        if block_hash not in self._observed:
            self._observed.add(block_hash)
            self.adversary.observe_block(block)

    # ------------------------------------------------------------------

    def run(self) -> "SimulationResult":
        """Execute all slots and return the recorded result."""
        schedule = self.election.schedule(self.total_slots)
        records: list[SlotRecord] = []
        nodes = self.nodes
        network = self.network
        tips = {name: node.best_tip() for name, node in nodes.items()}

        for slot in range(1, self.total_slots + 1):
            ready = network.ready(slot - 1)
            for name in ready:
                node = nodes[name]
                for block in network.due(name, slot - 1):
                    node.receive(block)
                    self._observe(block)

            record = SlotRecord(slot=slot, symbol=schedule.symbol(slot))
            leaders = schedule.leaders(slot)

            honest_blocks: list[Block] = []
            for party in leaders:
                if party.corrupted:
                    continue
                _eligible, _value, proof = self.election.eligibility(party, slot)
                node = nodes[party.name]
                block = node.mint_block(slot, proof)
                honest_blocks.append(block)
                self._observe(block)
            for block in honest_blocks:
                delays, priorities = self.adversary.honest_delays(slot, block)
                network.broadcast(
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
            self.adversary.act(slot, corrupted_leaders, network)

            # Only a received or minted block moves a tip.
            if ready or honest_blocks:
                moved = {name: node.best_tip() for name, node in nodes.items()}
                if moved != tips:
                    tips = moved
            record.honest_blocks = honest_blocks
            record.adopted_tips = tips
            records.append(record)

        # Final drain so end-of-run views include the last slot's
        # messages: ``total + Δ``, or the latest booked slot when transit
        # or an injection reaches past the Δ budget.
        final_slot = network.final_drain_slot(self.total_slots)
        for name, node in nodes.items():
            for block in network.due(name, final_slot):
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

    The predicates walk the block trees' hash indexes, memoise per-tip
    chain indexes, and skip repeated tip snapshots.
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
        unique: dict[str, Block] = {}
        for node in self.simulation.nodes.values():
            for block in node.tree.all_blocks():
                unique[block.block_hash] = block
        for block in sorted(
            (b for b in unique.values() if b.parent_hash != ""),
            key=lambda b: (b.slot, b.block_hash),
        ):
            union.add_block(block)
        return union

    # ------------------------------------------------------------------
    # consistency predicates
    # ------------------------------------------------------------------

    def settlement_violation(self, target_slot: int, depth: int) -> bool:
        """Did any honest observer at time ≥ target+depth see history before
        ``target_slot`` change or disagree? (Definition 3, operationally.)

        Two witnesses count: (a) two honest nodes' adopted chains at the
        same slot ``t ≥ target + depth`` diverging before ``target_slot``;
        (b) one node's adopted chain at ``t₂ > t₁ ≥ target + depth``
        diverging before ``target_slot`` from its chain at ``t₁`` (a deep
        reorg past the confirmation depth).

        Two chains diverge before the target exactly when their
        prefixes at the target differ (a common ancestor at or past the
        target would give them one prefix), so each distinct tip's
        prefix is resolved once, through its tree's parent index.  A
        snapshot whose tips share one prefix holds no witness (a); a
        record that shares its predecessor's ``adopted_tips`` dict adds
        nothing to either witness.
        """
        trees = {
            name: node.tree for name, node in self.simulation.nodes.items()
        }
        snapshots: list[dict[str, str]] = []
        for record in self.records:
            if record.slot < target_slot + depth:
                continue
            if not snapshots or record.adopted_tips is not snapshots[-1]:
                snapshots.append(record.adopted_tips)
        prefixes: dict[str, str] = {}
        for tips in snapshots:
            distinct = set()
            for name, tip in tips.items():
                prefix = prefixes.get(tip)
                if prefix is None:
                    prefix = trees[name].prefix_hash_at_slot(tip, target_slot)
                    prefixes[tip] = prefix
                distinct.add(prefix)
            if len(distinct) == 1:
                continue
            snapshot = tuple(tips.items())
            for i, (name_a, tip_a) in enumerate(snapshot):
                tree = trees[name_a]
                for _name_b, tip_b in snapshot[i + 1 :]:
                    if self._diverge_before(tree, tip_a, tip_b, prefixes):
                        return True
        for name, tree in trees.items():
            previous: str | None = None
            for tips in snapshots:
                tip = tips[name]
                if previous is not None and self._diverge_before(
                    tree, previous, tip, prefixes
                ):
                    return True
                previous = tip
        return False

    @staticmethod
    def _diverge_before(
        tree: BlockTree, tip_a: str, tip_b: str, prefixes: dict[str, str]
    ) -> bool:
        """Do two tips of ``tree`` have different prefixes at the target?"""
        return (
            tip_a != tip_b
            and prefixes[tip_a] != prefixes[tip_b]
            and tip_a in tree
            and tip_b in tree
        )

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
