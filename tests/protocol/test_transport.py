"""Transport layer: degenerate equivalence, topology, jitter, adversary.

The load-bearing test is :class:`TestDegenerateEquivalence` (ISSUE 7
satellite 2): with uniform sub-slot latency, infinite bandwidth, a
complete graph and no jitter, the continuous-time :class:`Transport`
produces **bit-identical** ``SimulationResult``s to the slot-quantized
:class:`NetworkModel` over the registered protocol workloads — the
paper's model is pinned as a special case, not a parallel code path.

:class:`TestAdversarialHoldComposition` is satellite 4: the adversary's
slot-granular hold (budgeted by Δ) must *compose* with the physical
transit, never overwrite it — and the Δ budget keeps being enforced on
the hold alone.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.protocol import ProtocolRunner, ProtocolScenario
from repro.engine.scenarios import get_scenario
from repro.protocol.adversary import SplitAdversary
from repro.protocol.block import genesis_block
from repro.protocol.crypto import IdealSignatureScheme
from repro.protocol.transport import (
    BLOCK_HEADER_BYTES,
    Transport,
    TransportConfig,
    build_adjacency,
    hop_counts,
    message_size,
    sample_jitters,
    transport_seed,
)
from repro.protocol.adversary import Adversary
from repro.protocol.leader import StakeDistribution
from repro.protocol.network import NetworkModel
from repro.protocol.simulation import Simulation

NODES = ["n0", "n1", "n2", "n3", "n4"]


def make_block(slot: int = 1, payload: str = "") -> "Block":
    """A well-formed block for transport-level tests."""
    signatures = IdealSignatureScheme(seed="transport-test")
    keypair = signatures.generate_keypair()
    genesis = genesis_block()
    from repro.protocol.block import Block

    header_free = Block(
        slot=slot,
        parent_hash=genesis.block_hash,
        issuer=keypair.public,
        payload=payload,
        vrf_proof="proof",
        signature="",
    )
    return Block(
        slot=slot,
        parent_hash=genesis.block_hash,
        issuer=keypair.public,
        payload=payload,
        vrf_proof="proof",
        signature=signatures.sign(keypair, header_free.header()),
    )


def snapshot(result):
    """Everything observable about a run, hash-exact."""
    return (
        result.characteristic_string,
        [
            (r.slot, r.symbol, tuple(sorted(r.adopted_tips.items())))
            for r in result.records
        ],
        tuple(sorted(b.block_hash for b in result.union_tree().all_blocks())),
    )


# ----------------------------------------------------------------------
# Satellite 2: the slot model is the degenerate case, bit-exactly
# ----------------------------------------------------------------------


#: Exact dyadic sub-slot latencies: 0 (free links), one half, and a
#: near-1 value — all quantize a slot-``t`` send back into slot ``t``.
SUB_SLOT_LATENCIES = (0.0, 0.5, 0.96875)

#: The registered slot-model workloads (the E10 grid plus the split and
#: Δ stressors), shrunk for test wall-clock without changing structure.
WORKLOADS = (
    ("protocol-honest", {"total_slots": 60, "depth": 10}),
    ("protocol-private-chain", {"total_slots": 50, "patience": 30}),
    ("protocol-split", {"total_slots": 40}),
    ("protocol-delta", {"total_slots": 50, "target_slot": 10, "depth": 6}),
)


class TestDegenerateEquivalence:
    @pytest.mark.parametrize("base,overrides", WORKLOADS)
    @pytest.mark.parametrize("latency", SUB_SLOT_LATENCIES)
    def test_runs_bit_identical_to_slot_model(self, base, overrides, latency):
        """Uniform sub-slot latency + ∞ bandwidth + complete graph ≡ slot."""
        slot_scenario = get_scenario(base, **overrides)
        wan_scenario = get_scenario(
            base, network="wan", latency=latency, **overrides
        )
        for randomness in ("protocol-17", "protocol-23skidoo"):
            slot_run = slot_scenario.build_simulation(randomness).run()
            wan_run = wan_scenario.build_simulation(randomness).run()
            assert snapshot(slot_run) == snapshot(wan_run)

    @pytest.mark.parametrize("base,overrides", WORKLOADS)
    def test_runner_estimates_bit_identical(self, base, overrides):
        """The whole engine path agrees: same estimate, same SE, exactly."""
        slot_scenario = get_scenario(base, **overrides)
        wan_scenario = get_scenario(base, network="wan", **overrides)
        slot_estimate = ProtocolRunner(slot_scenario).run(8, seed=909)
        wan_estimate = ProtocolRunner(wan_scenario).run(8, seed=909)
        assert slot_estimate == wan_estimate

    def test_default_transport_consumes_no_randomness(self):
        """The degenerate config never touches the jitter generator, so
        enabling jitter later cannot silently re-key anything else."""
        transport = Transport(NODES, delta=0, seed=42)
        before = transport._rng.bit_generator.state
        block = make_block()
        transport.broadcast(block, 1, sender="n0")
        transport.inject(block, "n1", 3)
        assert transport._rng.bit_generator.state == before

    def test_realized_delays_match_slot_model(self):
        """The observable sample is identical in the degenerate case."""
        from repro.protocol.network import NetworkModel

        slot_net = NetworkModel(NODES, delta=2)
        wan_net = Transport(NODES, delta=2, config=TransportConfig())
        block = make_block()
        delays = {"n1": 1, "n2": 2}
        slot_net.broadcast(block, 4, dict(delays), sender="n0")
        wan_net.broadcast(block, 4, dict(delays), sender="n0")
        assert wan_net.realized_delays == slot_net.realized_delays


# ----------------------------------------------------------------------
# Satellite 4: adversarial hold composes with transit, never overwrites
# ----------------------------------------------------------------------


class TestAdversarialHoldComposition:
    def test_hold_and_transit_add(self):
        """hold 2 + latency 1.5 ⇒ delivery in slot sent+3 — not sent+2
        (hold overwriting transit) nor sent+1 (transit overwriting hold).
        """
        config = TransportConfig(latency=1.5)
        transport = Transport(["a", "b"], delta=2, config=config)
        block = make_block()
        transport.broadcast(block, 5, delays={"b": 2}, sender="a")
        assert transport.due("b", 7) == []  # 5 + max(2, 1.5) would land here
        assert transport.due("b", 8) == [block]  # 5 + 2 + 1.5 = 8.5 → slot 8

    def test_delta_budget_still_enforced_on_the_hold(self):
        """Physics may exceed Δ; the adversary's hold still may not."""
        config = TransportConfig(latency=7.0)  # transit alone far past Δ
        transport = Transport(["a", "b"], delta=2, config=config)
        block = make_block()
        transport.broadcast(block, 1, delays={"b": 2}, sender="a")  # fine
        with pytest.raises(ValueError, match="axiom A0/A4"):
            transport.broadcast(block, 1, delays={"b": 3}, sender="a")

    def test_split_adversary_holds_compose_in_a_full_run(self):
        """Run-level regression: SplitAdversary(max_delay=Δ) on a WAN.

        Every realized honest delay must carry the link latency on top
        of whatever hold the adversary chose — the minimum realized
        delay is ≥ latency (nothing got its transit overwritten to 0)
        and delays for held recipients exceed the Δ budget alone
        (nothing got its hold clamped into the transit).
        """
        latency, delta = 0.5, 2
        scenario = ProtocolScenario(
            name="split-wan-regression",
            parties=6,
            activity=0.8,
            total_slots=40,
            delta=delta,
            adversary="split",
            target_slot=5,
            depth=3,
            network="wan",
            latency=latency,
        )
        assert isinstance(scenario.build_adversary(), SplitAdversary)
        result = scenario.build_simulation("protocol-303").run()
        delays = result.simulation.network.realized_delays
        assert delays, "the run must broadcast at least one honest block"
        assert min(delays) >= latency
        # The split schedule holds one half of the nodes the full budget:
        # those deliveries realize hold + transit = Δ + latency > Δ.
        assert max(delays) == pytest.approx(delta + latency)
        distribution = result.delay_distribution()
        assert distribution.exceedance_rate > 0.0

    def test_hold_composes_identically_through_the_scenario_layer(self):
        """max-delay adversary on a WAN: every non-sender delivery pays
        Δ + transit, bit-exactly."""
        scenario = get_scenario(
            "protocol-wan",
            topology="complete",
            jitter="fixed",
            jitter_scale=0.0,
            bandwidth=0.0,
            latency=0.5,
            total_slots=30,
        )
        result = scenario.build_simulation("protocol-11").run()
        delays = result.simulation.network.realized_delays
        assert delays
        assert all(d == pytest.approx(scenario.delta + 0.5) for d in delays)


# ----------------------------------------------------------------------
# Topology
# ----------------------------------------------------------------------


class TestTopology:
    def test_complete_is_single_hop(self):
        adjacency = build_adjacency(NODES, TransportConfig())
        for node in NODES:
            hops = hop_counts(adjacency, node)
            assert all(
                hops[other] == 1 for other in NODES if other != node
            )

    def test_star_routes_leaf_to_leaf_through_the_hub(self):
        adjacency = build_adjacency(
            NODES, TransportConfig(topology="star")
        )
        hub = NODES[0]
        from_hub = hop_counts(adjacency, hub)
        assert all(from_hub[leaf] == 1 for leaf in NODES[1:])
        from_leaf = hop_counts(adjacency, NODES[1])
        assert from_leaf[hub] == 1
        assert all(from_leaf[other] == 2 for other in NODES[2:])

    def test_ring_distance_is_cycle_distance(self):
        adjacency = build_adjacency(
            NODES, TransportConfig(topology="ring")
        )
        hops = hop_counts(adjacency, NODES[0])
        size = len(NODES)
        for i, node in enumerate(NODES):
            assert hops[node] == min(i, size - i)

    def test_two_node_ring_has_one_link(self):
        adjacency = build_adjacency(
            ["a", "b"], TransportConfig(topology="ring")
        )
        assert adjacency == {"a": ["b"], "b": ["a"]}

    def test_random_topology_is_connected_and_deterministic(self):
        config = TransportConfig(
            topology="random", edge_probability=0.2, topology_seed=7
        )
        nodes = [f"p{i}" for i in range(12)]
        adjacency = build_adjacency(nodes, config)
        hops = hop_counts(adjacency, nodes[0])
        assert set(hops) == set(nodes)  # ring backbone ⇒ connected
        assert build_adjacency(nodes, config) == adjacency
        rewired = build_adjacency(
            nodes,
            TransportConfig(
                topology="random", edge_probability=0.2, topology_seed=8
            ),
        )
        assert rewired != adjacency  # the seed is load-bearing

    def test_relays_multiply_latency(self):
        """Store-and-forward: each hop pays latency (ring, 2 hops)."""
        config = TransportConfig(latency=0.75, topology="ring")
        transport = Transport(NODES, config=config)
        block = make_block()
        transport.broadcast(block, 0, sender="n0")
        # n2 is two hops from n0: delivery at 2 * 0.75 = 1.5 → slot 1.
        assert block not in transport.due("n2", 0)
        assert transport.due("n2", 1) == [block]

    def test_unknown_sender_is_single_hop(self):
        transport = Transport(
            NODES, config=TransportConfig(latency=1.0, topology="ring")
        )
        block = make_block()
        transport.broadcast(block, 0, sender=None)
        for node in NODES:
            assert transport.due(node, 1) == [block]


# ----------------------------------------------------------------------
# Link physics: bandwidth, message size, jitter
# ----------------------------------------------------------------------


class TestLinkPhysics:
    def test_message_size_counts_header_and_payload(self):
        assert message_size(make_block()) == BLOCK_HEADER_BYTES
        assert (
            message_size(make_block(payload="xy"))
            == BLOCK_HEADER_BYTES + 2
        )

    def test_bandwidth_adds_transfer_time(self):
        """512-byte block over a 512 B/slot link: one slot of transfer."""
        config = TransportConfig(bandwidth=float(BLOCK_HEADER_BYTES))
        transport = Transport(["a", "b"], config=config)
        block = make_block()
        transport.broadcast(block, 3, sender="a")
        assert transport.due("b", 3) == []
        assert transport.due("b", 4) == [block]

    def test_larger_messages_take_longer(self):
        config = TransportConfig(bandwidth=float(BLOCK_HEADER_BYTES))
        transport = Transport(["a", "b"], config=config)
        heavy = make_block(payload="z" * BLOCK_HEADER_BYTES)  # 2× the size
        transport.broadcast(heavy, 3, sender="a")
        assert transport.due("b", 4) == []
        assert transport.due("b", 5) == [heavy]

    def test_uniform_jitter_is_bounded_by_scale(self):
        config = TransportConfig(jitter="uniform", jitter_scale=0.25)
        generator = np.random.default_rng(5)
        draws = sample_jitters(config, generator, 200)
        assert all(0.0 <= d < 0.25 for d in draws)
        assert len(set(draws)) > 1

    def test_exponential_jitter_respects_the_cap(self):
        config = TransportConfig(
            jitter="exponential", jitter_scale=1.0, jitter_cap=1.5
        )
        generator = np.random.default_rng(5)
        draws = sample_jitters(config, generator, 300)
        assert all(0.0 <= d <= 1.5 for d in draws)
        assert any(d == 1.5 for d in draws)  # the cap actually binds

    def test_exponential_cap_defaults_to_eight_scales(self):
        config = TransportConfig(jitter="exponential", jitter_scale=0.5)
        assert config.exponential_cap == 4.0

    def test_fixed_jitter_is_constant_and_free(self):
        config = TransportConfig(jitter="fixed", jitter_scale=0.3)
        generator = np.random.default_rng(5)
        state = generator.bit_generator.state
        assert sample_jitters(config, generator, 2) == [0.3, 0.3]
        assert generator.bit_generator.state == state

    @pytest.mark.parametrize("count", [1, 7, 64])
    @pytest.mark.parametrize("kind", ["uniform", "exponential"])
    def test_batched_draw_equals_scalar_draws(self, kind, count):
        """One ``size=count`` draw is ``count`` scalar draws, value for
        value, and leaves the generator in the same state."""
        config = TransportConfig(jitter=kind, jitter_scale=0.5, jitter_cap=1.0)
        batched = np.random.default_rng(11)
        scalar = np.random.default_rng(11)
        draws = sample_jitters(config, batched, count)
        if kind == "uniform":
            expected = [float(scalar.uniform(0.0, 0.5)) for _ in range(count)]
        else:
            expected = [
                float(min(scalar.exponential(0.5), 1.0)) for _ in range(count)
            ]
        assert draws == expected
        assert all(type(draw) is float for draw in draws)
        assert batched.bit_generator.state == scalar.bit_generator.state
        assert batched.random() == scalar.random()

    def test_jitter_draws_are_seed_deterministic(self):
        config = TransportConfig(jitter="exponential", jitter_scale=0.5)

        def schedule(seed):
            transport = Transport(NODES, config=config, seed=seed)
            block = make_block()
            transport.broadcast(block, 0, sender="n0")
            return list(transport.realized_delays)

        assert schedule(1234) == schedule(1234)
        assert schedule(1234) != schedule(4321)

    def test_transport_seed_is_stable_and_domain_separated(self):
        assert transport_seed("protocol-1") == transport_seed("protocol-1")
        assert transport_seed("protocol-1") != transport_seed("protocol-2")


# ----------------------------------------------------------------------
# Run-level observables and bookkeeping
# ----------------------------------------------------------------------


class TestRunObservables:
    def test_delay_distribution_quantiles(self):
        scenario = get_scenario("protocol-wan", total_slots=40)
        result = scenario.build_simulation("protocol-77").run()
        distribution = result.delay_distribution()
        assert distribution.count == len(
            result.simulation.network.realized_delays
        )
        assert distribution.count > 0
        assert (
            0.0
            < distribution.p50
            <= distribution.p90
            <= distribution.p99
            <= distribution.maximum
        )
        assert distribution.delta == scenario.delta
        # Δ=2 hold + ≥0.4-slot transit on every link ⇒ everything exceeds Δ.
        assert distribution.exceedance_rate == 1.0

    def test_slot_model_never_exceeds_delta(self):
        scenario = get_scenario("protocol-delta", total_slots=40)
        result = scenario.build_simulation("protocol-77").run()
        distribution = result.delay_distribution()
        assert distribution.count > 0
        assert distribution.exceedance_rate == 0.0
        assert distribution.maximum <= scenario.delta

    def test_empty_sample_collapses_to_zeros(self):
        scenario = get_scenario(
            "protocol-honest", activity=0.01, total_slots=2, target_slot=1,
            depth=1,
        )
        result = scenario.build_simulation("protocol-quiet").run()
        if result.simulation.network.realized_delays:
            pytest.skip("this seed minted a block after all")
        distribution = result.delay_distribution()
        assert distribution.count == 0
        assert distribution.mean == 0.0
        assert distribution.exceedance_rate == 0.0

    def test_long_transit_is_drained_by_the_end_of_run(self):
        """Latency ≫ Δ: the final drain still empties the network."""
        scenario = get_scenario(
            "protocol-wan",
            latency=5.0,
            jitter="fixed",
            jitter_scale=0.0,
            bandwidth=0.0,
            topology="ring",
            total_slots=30,
        )
        result = scenario.build_simulation("protocol-13").run()
        assert result.simulation.network.pending_count() == 0

    def test_scenario_rejects_transport_fields_on_slot_network(self):
        with pytest.raises(ValueError, match='require network="wan"'):
            ProtocolScenario(name="bad", latency=0.5)

    def test_scenario_rejects_unknown_axes(self):
        with pytest.raises(ValueError, match="unknown network"):
            ProtocolScenario(name="bad", network="carrier-pigeon")
        with pytest.raises(ValueError, match="unknown topology"):
            ProtocolScenario(
                name="bad", network="wan", topology="torus"
            )
        with pytest.raises(ValueError, match="unknown jitter"):
            ProtocolScenario(name="bad", network="wan", jitter="pareto")
        with pytest.raises(ValueError, match="edge_probability"):
            TransportConfig(edge_probability=1.5)
        with pytest.raises(ValueError, match="latency"):
            TransportConfig(latency=-1.0)


# ----------------------------------------------------------------------
# Skipped drains, late bookings and the final drain
# ----------------------------------------------------------------------


class BehindTheClock(Adversary):
    """Re-injects the newest observed block ``lag`` slots in the past.

    Every injection is booked into a slot the recipients have already
    drained; the log keeps ``(slot, recipient)`` per injection."""

    def __init__(self, every: int = 3, lag: int = 2) -> None:
        super().__init__()
        self.every = every
        self.lag = lag
        self.log: list[tuple] = []

    def act(self, slot, corrupted_leaders, network):
        newest = self.tree.longest_tips()[0]
        if slot % self.every or newest == self.tree.genesis_hash:
            return
        for recipient in self.recipients:
            network.inject(self.tree.block(newest), recipient, slot - self.lag)
            self.log.append((slot, recipient))


def run_behind_the_clock(transport, drain_all: bool):
    """A run with the stub adversary; ``drain_all`` drains every
    recipient every slot, as a network without idle-drain skipping."""
    adversary = BehindTheClock()
    simulation = Simulation(
        StakeDistribution.uniform(5, 0),
        activity=0.15,
        total_slots=60,
        adversary=adversary,
        randomness="behind-the-clock",
        transport=transport,
    )
    network = simulation.network
    if drain_all:
        network.ready = lambda slot: list(network.recipients)
    arrivals = []
    for name, node in simulation.nodes.items():
        receive = node.receive

        def logged(block, name=name, receive=receive):
            arrivals.append((name, block.block_hash))
            return receive(block)

        node.receive = logged
    result = simulation.run()
    return (
        snapshot(result),
        arrivals,
        adversary.log,
        {name: node._arrival_rank for name, node in simulation.nodes.items()},
    )


class LateInjector(Adversary):
    """Mints one block on genesis and books it into ``deliver_slot``."""

    def __init__(self, deliver_slot: int) -> None:
        super().__init__()
        self.deliver_slot = deliver_slot
        self.block = None

    def act(self, slot, corrupted_leaders, network):
        if self.block is not None or not corrupted_leaders:
            return
        party, proof = corrupted_leaders[0]
        self.block, _ = self._mint(party, slot, self.tree.genesis_hash, proof)
        for recipient in self.recipients:
            network.inject(self.block, recipient, self.deliver_slot)


TRANSPORTS = [
    pytest.param(None, id="slot"),
    pytest.param(TransportConfig(), id="wan-degenerate"),
    pytest.param(
        TransportConfig(
            latency=0.4, jitter="uniform", jitter_scale=0.5, topology="ring",
        ),
        id="wan-jitter",
    ),
]


def make_network(transport, recipients, delta=0):
    if transport is None:
        return NetworkModel(recipients, delta=delta)
    return Transport(recipients, delta=delta, config=transport, seed=3)


class TestSkippedDrains:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_skipping_equals_draining(self, transport):
        skipped = run_behind_the_clock(transport, drain_all=False)
        drained = run_behind_the_clock(transport, drain_all=True)
        assert skipped == drained
        _, arrivals, log, _ = skipped
        assert arrivals
        assert log  # the adversary really booked behind the drains

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_late_booking_arrives_in_the_next_drain(self, transport):
        """A booking behind the last drained slot is not lost: the next
        drain delivers it at its ``(priority, sequence)`` position."""
        network = make_network(transport, ["a", "b"])
        first = make_block(3, "first")
        network.broadcast(first, 3, sender="a")
        assert network.ready(3) == ["b"]  # no copy for the sender
        assert network.due("b", 3) == [first]
        assert network.due("a", 3) == []
        old = make_block(1, "old")
        rushed = make_block(4, "rushed")
        honest = make_block(4, "honest")
        network.inject(old, "b", 1, priority=0)  # slot 1 is drained
        network.broadcast(honest, 4, sender="a")
        network.inject(rushed, "b", 4)
        assert network.ready(4) == ["b"]
        assert network.due("b", 4) == [rushed, old, honest]
        assert network.due("a", 4) == []
        assert network.pending_count() == 0

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_ready_lists_only_recipients_with_messages_due(self, transport):
        network = make_network(transport, ["a", "b"])
        block = make_block()
        network.broadcast(block, 3, sender="a")
        assert network.ready(2) == []
        assert network.ready(3) == ["b"]
        assert network.due("b", 3) == [block]
        assert network.ready(3) == []
        assert network.pending_count() == 0

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_final_drain_reaches_injections_past_the_deadline(self, transport):
        """An injection booked past ``total_slots + Δ`` still reaches the
        end-of-run node trees: the final drain covers the latest booking."""
        total_slots, delta = 20, 1
        adversary = LateInjector(total_slots + delta + 3)
        simulation = Simulation(
            StakeDistribution.uniform(3, 2),
            activity=0.3,
            total_slots=total_slots,
            delta=delta,
            adversary=adversary,
            randomness="late-injection",
            transport=transport,
        )
        simulation.run()
        assert adversary.block is not None
        assert simulation.network.pending_count() == 0
        for node in simulation.nodes.values():
            assert adversary.block.block_hash in node.tree
