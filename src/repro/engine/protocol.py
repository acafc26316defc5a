"""Layer 5: the executable protocol as a batched engine workload.

PRs 1–2 put every *analytical* measurement — reach/margin recurrences,
settlement DPs, Catalan masks — behind the scenario → runner → sweep
pipeline.  This module does the same for the *executable protocol* of
Section 2: a frozen :class:`ProtocolScenario` describes one protocol
configuration (stake split, activity, Δ, tie-break rule, adversary
strategy) in plain JSON-serialisable fields, samples batches of
independent :class:`~repro.protocol.simulation.Simulation` runs, and
plugs into the *unchanged* upper layers — ``ExperimentRunner`` chunking,
``ProcessBackend`` fan-out, ``ResultCache`` content addressing, and
``run_grid`` sweeps.

Seed discipline (the runner contract, extended): the runner spawns one
``SeedSequence`` child per chunk exactly as for analytical scenarios;
:meth:`ProtocolScenario.sample_batch` then draws one uint64 per trial
from the chunk's generator and derives each run's randomness string from
it.  A trial's execution is therefore a pure function of its chunk child
and position — bit-identical for every backend and worker count.

Runs validate in the simulation's shared mode (pure cryptographic
checks computed once per block, shared across the node set) and
evaluate the violation predicates through the block trees' hash
indexes.  The per-run reference execution these are checked against —
per-node checks and the chain-walking predicates, on the same seed
tree — lives in ``tests/protocol/test_determinism.py``.

The violation estimators return boolean flag vectors, which the
runner's hit-count contract reduces to one ``int`` per chunk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.runner import (
    Estimator,
    ExperimentRunner,
)
from repro.engine.scenarios import PROTOCOL_CHUNK_SIZE, register
from repro.protocol.adversary import (
    Adversary,
    MaxDelayAdversary,
    NullAdversary,
    PrivateChainAdversary,
    SplitAdversary,
)
from repro.protocol.leader import StakeDistribution
from repro.protocol.simulation import Simulation, SimulationResult
from repro.protocol.tiebreak import (
    TieBreakRule,
    adversarial_order_rule,
    consistent_hash_rule,
)
from repro.protocol.transport import TransportConfig

__all__ = [
    "NETWORKS",
    "PROTOCOL_CHUNK_SIZE",
    "ProtocolBatch",
    "ProtocolRunner",
    "ProtocolScenario",
    "protocol_cp_violation",
    "protocol_deep_reorg",
    "protocol_settlement_violation",
]

#: Tie-break rules addressable from a frozen scenario (axioms A0 / A0′).
TIE_BREAK_RULES: dict[str, TieBreakRule] = {
    "adversarial": adversarial_order_rule,
    "consistent": consistent_hash_rule,
}

#: Adversary strategies addressable from a frozen scenario.
ADVERSARIES = ("null", "private-chain", "split", "max-delay")

#: Network models addressable from a frozen scenario: the slot-quantized
#: Δ model of the paper, or the continuous-time WAN transport.
NETWORKS = ("slot", "wan")


@dataclass(frozen=True, eq=False)
class ProtocolBatch:
    """One executed batch: a simulation result per trial, ready for a
    violation estimator."""

    results: tuple[SimulationResult, ...]
    seeds: np.ndarray

    @property
    def trials(self) -> int:
        return len(self.results)


@dataclass(frozen=True)
class ProtocolScenario:
    """A declarative protocol-execution workload.

    All fields are JSON-serialisable primitives, so
    ``dataclasses.asdict`` is a complete cache fingerprint and instances
    pickle across process boundaries — exactly the properties the upper
    engine layers assume of a scenario.

    ``parties`` equal-stake participants, of which
    ``round(parties * adversary_fraction)`` are corrupted.  ``depth`` is
    the settlement/common-prefix parameter k read by the estimators;
    ``target_slot`` the attacked slot.  ``hold`` (private-chain only)
    defaults to ``depth`` — the double-spend must outwait the
    confirmation depth it attacks.
    """

    name: str
    parties: int = 10
    adversary_fraction: float = 0.0
    activity: float = 0.3
    total_slots: int = 100
    delta: int = 0
    tie_break: str = "adversarial"
    adversary: str = "null"
    target_slot: int = 10
    depth: int = 4
    patience: int = 60
    lead: int = 1
    hold: int | None = None
    # -- network axes (PR 7).  ``network="slot"`` is the paper's
    # slot-quantized Δ model; ``"wan"`` swaps in the continuous-time
    # Transport, parameterised by the remaining fields (slot units /
    # bytes-per-slot; see repro.protocol.transport.TransportConfig).
    network: str = "slot"
    latency: float = 0.0
    bandwidth: float = 0.0
    jitter: str = "fixed"
    jitter_scale: float = 0.0
    jitter_cap: float = 0.0
    topology: str = "complete"
    edge_probability: float = 0.5
    topology_seed: int = 0
    description: str = ""

    def __post_init__(self) -> None:
        if self.parties < 2:
            raise ValueError("parties must be >= 2 (at least one honest node)")
        if not 0.0 <= self.adversary_fraction < 1.0:
            raise ValueError("adversary_fraction must lie in [0, 1)")
        if self.corrupted >= self.parties:
            raise ValueError("at least one party must remain honest")
        if not 0.0 < self.activity <= 1.0:
            raise ValueError("activity must lie in (0, 1]")
        if self.total_slots < 1:
            raise ValueError("total_slots must be positive")
        if self.delta < 0:
            raise ValueError("delta must be non-negative")
        if self.tie_break not in TIE_BREAK_RULES:
            known = ", ".join(sorted(TIE_BREAK_RULES))
            raise ValueError(
                f"unknown tie_break {self.tie_break!r}; known: {known}"
            )
        if self.adversary not in ADVERSARIES:
            known = ", ".join(ADVERSARIES)
            raise ValueError(
                f"unknown adversary {self.adversary!r}; known: {known}"
            )
        if not 1 <= self.target_slot <= self.total_slots:
            raise ValueError("target_slot must lie in [1, total_slots]")
        if self.depth < 1:
            raise ValueError("depth must be a positive settlement depth")
        if self.network not in NETWORKS:
            known = ", ".join(NETWORKS)
            raise ValueError(
                f"unknown network {self.network!r}; known: {known}"
            )
        # Delegate range/name validation of the transport fields (and
        # reject malformed values even on slot scenarios, where they
        # would otherwise lie dormant in cache fingerprints).
        config = self._transport_config()
        if self.network == "slot" and config != TransportConfig():
            raise ValueError(
                "transport fields (latency/bandwidth/jitter*/topology*/"
                'edge_probability) require network="wan"; '
                'network="slot" is the quantized model and ignores them'
            )

    def _transport_config(self) -> TransportConfig:
        return TransportConfig(
            latency=self.latency,
            bandwidth=self.bandwidth,
            jitter=self.jitter,
            jitter_scale=self.jitter_scale,
            jitter_cap=self.jitter_cap,
            topology=self.topology,
            edge_probability=self.edge_probability,
            topology_seed=self.topology_seed,
        )

    # -- derived configuration -----------------------------------------

    @property
    def corrupted(self) -> int:
        """Number of corrupted parties."""
        return round(self.parties * self.adversary_fraction)

    @property
    def honest(self) -> int:
        """Number of honest parties."""
        return self.parties - self.corrupted

    def build_adversary(self) -> Adversary:
        """A fresh adversary strategy instance for one run."""
        if self.adversary == "private-chain":
            return PrivateChainAdversary(
                target_slot=self.target_slot,
                patience=self.patience,
                lead=self.lead,
                hold=self.depth if self.hold is None else self.hold,
            )
        if self.adversary == "split":
            return SplitAdversary(max_delay=self.delta)
        if self.adversary == "max-delay":
            return MaxDelayAdversary(max_delay=self.delta)
        return NullAdversary()

    def build_transport(self) -> TransportConfig | None:
        """The WAN description, or ``None`` for the slot-quantized model."""
        if self.network == "slot":
            return None
        return self._transport_config()

    def build_simulation(self, randomness: str) -> Simulation:
        """A fully configured :class:`Simulation` for one run."""
        return Simulation(
            StakeDistribution.uniform(self.honest, self.corrupted),
            activity=self.activity,
            total_slots=self.total_slots,
            delta=self.delta,
            tie_break=TIE_BREAK_RULES[self.tie_break],
            adversary=self.build_adversary(),
            randomness=randomness,
            transport=self.build_transport(),
        )

    # -- engine integration --------------------------------------------

    def sample_batch(
        self, trials: int, generator: np.random.Generator
    ) -> ProtocolBatch:
        """Execute ``trials`` independent runs seeded from ``generator``.

        One ``(trials,)`` uint64 block is drawn first (the documented
        randomness phase), then run ``i`` executes with randomness
        string ``protocol-<seed_i>``.
        """
        seeds = generator.integers(0, 2**63, size=trials, dtype=np.uint64)
        results = tuple(
            self.build_simulation(f"protocol-{int(seed)}").run()
            for seed in seeds
        )
        return ProtocolBatch(results, seeds)

    def default_estimator(self) -> Estimator:
        """Settlement failure, except for the split attack whose signal
        is reorganisation depth (the Theorem 2 ablation measure)."""
        if self.adversary == "split":
            return protocol_deep_reorg
        return protocol_settlement_violation


# ----------------------------------------------------------------------
# Violation estimators
# ----------------------------------------------------------------------


def _hits(flags, trials: int) -> np.ndarray:
    return np.fromiter(flags, dtype=bool, count=trials)


def protocol_settlement_violation(
    scenario: ProtocolScenario, batch: ProtocolBatch
) -> np.ndarray:
    """k-settlement failure of the target slot (Definition 3) per run."""
    return _hits(
        (
            r.settlement_violation(scenario.target_slot, scenario.depth)
            for r in batch.results
        ),
        batch.trials,
    )


def protocol_cp_violation(
    scenario: ProtocolScenario, batch: ProtocolBatch
) -> np.ndarray:
    """k-CP^slot failure (Definition 24) per run."""
    return _hits(
        (r.cp_slot_violation(scenario.depth) for r in batch.results),
        batch.trials,
    )


def protocol_deep_reorg(
    scenario: ProtocolScenario, batch: ProtocolBatch
) -> np.ndarray:
    """Did any honest node reorganise ≥ depth blocks?  The tie-break
    ablation signal: deep under A0 + split scheduling, trivial under A0′."""
    return _hits(
        (r.max_reorg_depth() >= scenario.depth for r in batch.results),
        batch.trials,
    )


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------


class ProtocolRunner(ExperimentRunner):
    """:class:`ExperimentRunner` specialised for protocol scenarios.

    Nothing in the execution path changes — chunked submission, the
    spawned seed tree, backend independence, cache/ledger integration,
    and the adaptive :meth:`~repro.engine.runner.ExperimentRunner.
    run_until` stopping mode are inherited verbatim.  Adaptive stopping
    matters most here: a protocol trial is a whole simulated execution
    (milliseconds, not microseconds), so stopping a rare-violation
    workload the moment its standard error resolves — and ledgering
    every completed chunk of simulations for later budget extensions —
    saves real wall-clock.  The specialisation is the default chunk
    size (:data:`PROTOCOL_CHUNK_SIZE`: small, so a pool has work to
    interleave) and a type check that catches analytical scenarios
    passed by mistake.
    """

    def __init__(
        self,
        scenario: ProtocolScenario,
        estimator: Estimator | None = None,
        chunk_size: int = PROTOCOL_CHUNK_SIZE,
        cache=None,
    ) -> None:
        if not isinstance(scenario, ProtocolScenario):
            raise TypeError(
                "ProtocolRunner needs a ProtocolScenario; use "
                "ExperimentRunner for analytical scenarios"
            )
        super().__init__(scenario, estimator, chunk_size, cache)


# ----------------------------------------------------------------------
# Built-in protocol workloads (registered alongside the analytical ones)
# ----------------------------------------------------------------------

register(
    ProtocolScenario(
        name="protocol-honest",
        parties=10,
        adversary_fraction=0.0,
        activity=0.3,
        total_slots=200,
        target_slot=10,
        depth=30,
        description=(
            "E10 throughput workload: 10 honest equal-stake nodes, "
            "synchronous delivery, no adversary; settlement of slot 10 "
            "at depth 30 must never fail"
        ),
    )
)

register(
    ProtocolScenario(
        name="protocol-private-chain",
        parties=10,
        adversary_fraction=0.4,
        activity=0.4,
        total_slots=90,
        adversary="private-chain",
        target_slot=10,
        depth=4,
        patience=60,
        description=(
            "E10 settlement game: private-chain double-spend against "
            "slot 10 at depth 4 with 40% corrupted stake (the concrete "
            "attacker measured against the Section 6.6 optimum)"
        ),
    )
)

register(
    ProtocolScenario(
        name="protocol-split",
        parties=10,
        adversary_fraction=0.0,
        activity=0.8,
        total_slots=70,
        adversary="split",
        target_slot=5,
        depth=3,
        description=(
            "E7 ablation workload: stakeless split scheduling of "
            "concurrent honest blocks; reorgs >= 3 deep under A0, "
            "collapse to 1 under A0' (Theorem 2)"
        ),
    )
)

register(
    ProtocolScenario(
        name="protocol-wan",
        parties=8,
        adversary_fraction=0.0,
        activity=0.5,
        total_slots=60,
        delta=2,
        adversary="max-delay",
        target_slot=10,
        depth=8,
        network="wan",
        topology="random",
        latency=0.4,
        bandwidth=4096.0,
        jitter="exponential",
        jitter_scale=0.5,
        jitter_cap=3.0,
        description=(
            "Realistic-WAN settlement workload: random gossip graph with "
            "relay hops, 0.4-slot link latency, bandwidth-limited "
            "transfer, capped-exponential jitter, and a max-delay "
            "adversary spending its full Delta=2 hold on top — the "
            "measured-delay regime the slot model cannot express"
        ),
    )
)

register(
    ProtocolScenario(
        name="protocol-delta",
        parties=8,
        adversary_fraction=0.0,
        activity=0.5,
        total_slots=100,
        delta=3,
        adversary="max-delay",
        target_slot=20,
        depth=10,
        description=(
            "Section 8 stressor: every honest broadcast held the full "
            "Delta budget, manufacturing de-facto concurrent leaders"
        ),
    )
)
