"""Protocol determinism: repeats, execution modes, drains, predicates.

The layer-5 contract mirrors the engine determinism suite
(``tests/engine/test_parallel.py``): a protocol run is a pure function
of its configuration and randomness string — identical across repeats,
identical between the reference and shared-validation execution modes,
and (through the runner) identical for every worker count.  The
``*_scalar`` chain-walking reference predicates below must agree with
the hash-indexed predicates on adversarial executions, and the bucketed
network must be fully drained by the end-of-run flush for every Δ.
"""

import numpy as np
import pytest

from repro.engine.protocol import (
    PROTOCOL_CHUNK_SIZE,
    ProtocolRunner,
    ProtocolScenario,
    protocol_cp_violation,
    protocol_deep_reorg,
    protocol_settlement_violation,
)
from repro.engine.runner import (
    Estimate,
    Estimator,
    chunk_sizes,
    estimate_from_hits,
)
from repro.engine.parallel import ProcessBackend
from repro.engine.scenarios import get_scenario
from repro.protocol.adversary import (
    MaxDelayAdversary,
    PrivateChainAdversary,
    SplitAdversary,
)
from repro.protocol.block import GENESIS_SLOT, BlockTree
from repro.protocol.leader import StakeDistribution
from repro.protocol.simulation import Simulation, SimulationResult
from tests.protocol.reference_validation import per_node_validation


# ----------------------------------------------------------------------
# Reference predicates: the original chain-walking algorithms,
# recomputing block hashes along every comparison, as a verifier would.
# ----------------------------------------------------------------------


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
    tree: BlockTree, tip_a: str, tip_b: str, slot: int
) -> bool:
    if tip_a == tip_b:
        return False
    if tip_a not in tree or tip_b not in tree:
        return False
    meet = _common_prefix_slot_scalar(tree, tip_a, tip_b)
    prefix_a = _prefix_hash_at_slot_scalar(tree, tip_a, slot)
    prefix_b = _prefix_hash_at_slot_scalar(tree, tip_b, slot)
    return meet < slot and prefix_a != prefix_b


def settlement_violation_scalar(
    result: SimulationResult, target_slot: int, depth: int
) -> bool:
    """Reference implementation of ``settlement_violation``."""
    interesting = [
        r for r in result.records if r.slot >= target_slot + depth
    ]
    trees = {
        name: node.tree for name, node in result.simulation.nodes.items()
    }
    for record in interesting:
        tips = list(record.adopted_tips.items())
        for i, (name_a, tip_a) in enumerate(tips):
            for _name_b, tip_b in tips[i + 1 :]:
                if _diverge_before_scalar(
                    trees[name_a], tip_a, tip_b, target_slot
                ):
                    return True
    for name in trees:
        previous: str | None = None
        for record in interesting:
            tip = record.adopted_tips[name]
            if previous is not None and _diverge_before_scalar(
                trees[name], previous, tip, target_slot
            ):
                return True
            previous = tip
    return False


def _is_slot_prefix_scalar(
    tree: BlockTree, tip_a: str, cutoff: int, tip_b: str
) -> bool:
    anchor = _prefix_hash_at_slot_scalar(tree, tip_a, cutoff)
    chain_b = {block.block_hash for block in tree.chain(tip_b)}
    return anchor in chain_b


def cp_slot_violation_scalar(result: SimulationResult, depth: int) -> bool:
    """Reference implementation of ``cp_slot_violation``."""
    trees = {
        name: node.tree for name, node in result.simulation.nodes.items()
    }
    for record in result.records:
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
                if not _is_slot_prefix_scalar(tree, tip_a, cutoff, tip_b):
                    return True
    for name, tree in trees.items():
        previous: str | None = None
        previous_slot = 0
        for record in result.records:
            tip = record.adopted_tips[name]
            cutoff = previous_slot - depth
            if previous is not None and cutoff > 0:
                if not _is_slot_prefix_scalar(tree, previous, cutoff, tip):
                    return True
            previous, previous_slot = tip, record.slot
    return False


def max_reorg_depth_scalar(result: SimulationResult) -> int:
    """Reference implementation of ``max_reorg_depth``."""
    deepest = 0
    trees = {
        name: node.tree for name, node in result.simulation.nodes.items()
    }
    for name, tree in trees.items():
        previous: str | None = None
        for record in result.records:
            tip = record.adopted_tips[name]
            if previous is not None and previous in tree and tip in tree:
                meet_slot = _common_prefix_slot_scalar(tree, previous, tip)
                meet_hash = _prefix_hash_at_slot_scalar(
                    tree, previous, meet_slot
                )
                discarded = tree.depth(previous) - tree.depth(meet_hash)
                deepest = max(deepest, discarded)
            previous = tip
    return deepest


def _scalar_settlement(scenario, result) -> bool:
    return settlement_violation_scalar(
        result, scenario.target_slot, scenario.depth
    )


def _scalar_cp(scenario, result) -> bool:
    return cp_slot_violation_scalar(result, scenario.depth)


def _scalar_deep_reorg(scenario, result) -> bool:
    return max_reorg_depth_scalar(result) >= scenario.depth


#: batched estimator → per-result scalar predicate (the oracle pairing).
_SCALAR_TWINS = {
    protocol_settlement_violation: _scalar_settlement,
    protocol_cp_violation: _scalar_cp,
    protocol_deep_reorg: _scalar_deep_reorg,
}


def run_protocol_scalar(
    scenario: ProtocolScenario,
    trials: int,
    seed: int,
    chunk_size: int = PROTOCOL_CHUNK_SIZE,
    estimator: Estimator | None = None,
) -> Estimate:
    """Per-run reference execution of a protocol scenario.

    Walks the *same* spawned seed tree as :class:`ProtocolRunner` (same
    chunk partition, same per-trial uint64 draws) but executes each run
    with per-node validation and evaluates the ``*_scalar``
    chain-walking predicates.  The returned estimate must be
    bit-identical to the batched path on equal
    ``(trials, seed, chunk_size)``.
    """
    if estimator is None:
        estimator = scenario.default_estimator()
    predicate = _SCALAR_TWINS[estimator]
    sizes = chunk_sizes(trials, chunk_size)
    children = np.random.SeedSequence(seed).spawn(len(sizes))
    hits = 0
    for size, child in zip(sizes, children):
        generator = np.random.default_rng(child)
        seeds = generator.integers(0, 2**63, size=size, dtype=np.uint64)
        for run_seed in seeds:
            simulation = per_node_validation(
                scenario.build_simulation(f"protocol-{int(run_seed)}")
            )
            hits += bool(predicate(scenario, simulation.run()))
    return estimate_from_hits(hits, trials)


def make_adversary(kind: str, delta: int = 0):
    if kind == "private-chain":
        return PrivateChainAdversary(target_slot=10, hold=4, patience=40)
    if kind == "split":
        return SplitAdversary()
    if kind == "max-delay":
        return MaxDelayAdversary(max_delay=delta)
    return None


def run_once(kind: str = "private-chain", shared: bool = False, delta: int = 0):
    corrupted = 4 if kind == "private-chain" else 0
    simulation = Simulation(
        StakeDistribution.uniform(6, corrupted),
        activity=0.5,
        total_slots=60,
        delta=delta,
        adversary=make_adversary(kind, delta),
        randomness="determinism-seed",
    )
    if not shared:
        per_node_validation(simulation)
    return simulation.run()


def snapshot(result):
    """Everything observable about a run, for bit-identity comparison."""
    return (
        result.characteristic_string,
        [(r.slot, r.symbol, r.adopted_tips) for r in result.records],
        sorted(b.block_hash for b in result.union_tree().all_blocks()),
    )


class TestFixedSeedRepeats:
    @pytest.mark.parametrize("kind", ["null", "private-chain", "split"])
    def test_bit_identical_across_repeats(self, kind):
        assert snapshot(run_once(kind)) == snapshot(run_once(kind))

    @pytest.mark.parametrize("kind", ["null", "private-chain", "split"])
    def test_shared_validation_mode_changes_nothing(self, kind):
        reference = run_once(kind, shared=False)
        batched = run_once(kind, shared=True)
        assert snapshot(reference) == snapshot(batched)

    def test_delta_run_identical_across_modes(self):
        reference = run_once("max-delay", shared=False, delta=3)
        batched = run_once("max-delay", shared=True, delta=3)
        assert snapshot(reference) == snapshot(batched)


class TestFinalDrain:
    @pytest.mark.parametrize("delta", [0, 1, 3])
    def test_nothing_pending_after_run(self, delta):
        simulation = Simulation(
            StakeDistribution.uniform(6, 0),
            activity=0.5,
            total_slots=40,
            delta=delta,
            adversary=MaxDelayAdversary(max_delay=delta),
            randomness=f"drain-{delta}",
        )
        simulation.run()
        assert simulation.network.pending_count() == 0


class TestScalarOracles:
    """Hash-indexed predicates ≡ the chain-walking scalar algorithms."""

    @pytest.mark.parametrize("kind", ["private-chain", "split"])
    @pytest.mark.parametrize("seed", range(3))
    def test_predicates_agree_on_adversarial_runs(self, kind, seed):
        corrupted = 4 if kind == "private-chain" else 0
        result = Simulation(
            StakeDistribution.uniform(6, corrupted),
            activity=0.6,
            total_slots=60,
            adversary=make_adversary(kind),
            randomness=f"oracle-{kind}-{seed}",
        ).run()
        for target, depth in ((10, 4), (5, 10), (20, 2)):
            assert result.settlement_violation(
                target, depth
            ) == settlement_violation_scalar(result, target, depth)
        for depth in (2, 5, 10):
            assert result.cp_slot_violation(
                depth
            ) == cp_slot_violation_scalar(result, depth)
        assert result.max_reorg_depth() == max_reorg_depth_scalar(result)


class TestRunnerBackendIndependence:
    """Batched protocol runs: serial ≡ 2 ≡ 4 workers ≡ scalar oracle."""

    @pytest.fixture(scope="class")
    def scenario(self):
        return get_scenario("protocol-split", total_slots=40)

    @pytest.fixture(scope="class")
    def serial(self, scenario):
        return ProtocolRunner(scenario, chunk_size=4).run(12, seed=99)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_identical_across_worker_counts(self, scenario, serial, workers):
        runner = ProtocolRunner(scenario, chunk_size=4)
        with ProcessBackend(workers) as pool:
            assert runner.run(12, seed=99, backend=pool) == serial

    def test_scalar_oracle_matches(self, scenario, serial):
        assert run_protocol_scalar(scenario, 12, seed=99, chunk_size=4) == serial

    @pytest.mark.parametrize(
        "estimator",
        [
            protocol_settlement_violation,
            protocol_cp_violation,
            protocol_deep_reorg,
        ],
    )
    def test_every_estimator_has_matching_scalar_twin(
        self, scenario, estimator
    ):
        batched = ProtocolRunner(
            scenario, estimator=estimator, chunk_size=4
        ).run(8, seed=5)
        scalar = run_protocol_scalar(
            scenario, 8, seed=5, chunk_size=4, estimator=estimator
        )
        assert batched == scalar
