"""E10 — the settlement game at the protocol level (Section 2.2).

Runs the full executable protocol (VRF election, signed blocks, rushing
adversary network) through the engine's protocol workload layer
(:mod:`repro.engine.protocol`): batches of independent ``Simulation``
runs executed by :class:`ProtocolRunner` under the chunked seed-tree
contract, with the private-chain attacker's settlement-violation rate
compared against the exact optimal-adversary probability from the
Section 6.6 DP — the concrete attacker must not exceed the optimum.
"""

from bench_config import SEEDS, TRIALS
from repro.analysis.exact import settlement_violation_probability
from repro.core.distributions import SlotProbabilities
from repro.engine.cache import cache_from_env
from repro.engine.protocol import ProtocolRunner
from repro.engine.scenarios import get_scenario
from repro.protocol.adversary import PrivateChainAdversary
from repro.protocol.leader import (
    StakeDistribution,
    induced_slot_probabilities,
)
from repro.protocol.simulation import Simulation


def synchronous_law(stakes: StakeDistribution, activity: float):
    """The protocol's induced law conditioned on non-empty slots."""
    induced = induced_slot_probabilities(stakes, activity)
    scale = 1.0 / induced.activity
    return SlotProbabilities(
        induced.p_unique * scale,
        induced.p_multi * scale,
        induced.p_adversarial * scale,
    )


def test_honest_throughput(benchmark):
    """The E10 throughput workload: a batch of honest 200-slot runs."""
    scenario = get_scenario("protocol-honest")
    trials = max(TRIALS["protocol_e10_trials"] // 4, 2)
    runner = ProtocolRunner(scenario, cache=cache_from_env())

    estimate = benchmark.pedantic(
        runner.run, (trials, SEEDS["protocol_e10"]), rounds=1, iterations=1
    )

    # Honest synchronous execution never violates settlement.
    assert estimate.value == 0.0
    benchmark.extra_info["slots"] = scenario.total_slots
    benchmark.extra_info["trials"] = trials


def test_private_chain_attack_below_optimum(benchmark):
    scenario = get_scenario("protocol-private-chain")
    runner = ProtocolRunner(scenario, cache=cache_from_env())
    trials = TRIALS["protocol_attack"]

    estimate = benchmark.pedantic(
        runner.run, (trials, SEEDS["protocol_attack"]), rounds=1, iterations=1
    )

    stakes = StakeDistribution.uniform(scenario.honest, scenario.corrupted)
    optimal = settlement_violation_probability(
        synchronous_law(stakes, scenario.activity), scenario.depth
    )
    # a concrete (suboptimal) attacker over few trials: generous MC slack
    assert estimate.value <= min(optimal + 0.40, 1.0)
    benchmark.extra_info["observed_rate"] = f"{estimate.value:.3f}"
    benchmark.extra_info["optimal_adversary"] = f"{optimal:.3f}"


def test_execution_fork_extraction(benchmark):
    """Converting an adversarial execution into a validated abstract fork."""
    stakes = StakeDistribution.uniform(6, 3)
    simulation = Simulation(
        stakes,
        activity=0.4,
        total_slots=120,
        adversary=PrivateChainAdversary(target_slot=20, hold=6),
        randomness=SEEDS["protocol_fork_extraction"],
    )
    result = simulation.run()

    fork = benchmark(result.execution_fork)

    fork.validate()
    benchmark.extra_info["vertices"] = len(fork.vertices())
