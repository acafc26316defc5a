"""WAN link physics behind the Δ axiom: transit times for the slot network.

The paper's network model quantizes delivery into slots under a single
worst-case Δ; its guarantees hold against *any* schedule the adversary
realizes within that budget.  A real WAN produces a distribution of
effective delays instead of a constant — per-link latency, bandwidth,
message size, gossip relay hops, and jitter.  :class:`Transport` models
exactly that, following hydrachain's transport cost model (per-link
base latency + bandwidth, message-size-dependent transfer time), as the
slot-quantized :class:`~repro.protocol.network.NetworkModel` with one
method overridden: :meth:`Transport.transits`.  Everything else is the
slot model's, so the paper's adversary stays intact:

* the **adversarial hold** (``delays[recipient]``, slot-granular,
  enforced ≤ Δ) *composes* with the physical transit — the adversary
  delays the hand-off to the network, then physics takes over.  It
  never overwrites or clamps the transit;
* **per-recipient ordering** within one ingestion batch stays the
  documented ``(priority, enqueue order)`` contract — the rushing
  adversary still controls A0 tie-break order; physics only decides
  *which slot* a message becomes available in;
* **injection** stays out-of-band: the adversary delivers its own
  blocks on its own channel at whatever slot it names, unconstrained by
  topology or bandwidth.

Delay model (slot units, hydrachain §1 generalized to relays)::

    transit(sender → recipient) =
        hops · (latency + size / bandwidth) + jitter_draw

where ``hops`` is the gossip-relay path length in the configured
topology (store-and-forward: every hop pays latency and transfer),
``size`` is :func:`message_size` bytes, ``bandwidth = 0`` means
infinite, and ``jitter_draw`` is one seeded draw per (message,
recipient) from the configured distribution (fixed / uniform /
exponential-with-cap; scale 0 never touches the generator).  A message
broadcast in slot ``t`` with hold ``h`` is available to its recipient
in slot ``⌊t + h + transit⌋``.

**Degenerate-case guarantee** (pinned by ``tests/protocol/
test_transport.py``): with a uniform sub-slot link latency, infinite
bandwidth, a complete graph, and no jitter — the default
:class:`TransportConfig` — every delivery lands in exactly the slot the
slot-quantized model assigns, with identical ``(priority, sequence)``
ordering, so whole ``SimulationResult``s are bit-identical.  The
paper's model is the special case, not a parallel code path.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.protocol.block import Block
from repro.protocol.network import NetworkModel

__all__ = [
    "BLOCK_HEADER_BYTES",
    "JITTERS",
    "TOPOLOGIES",
    "Transport",
    "TransportConfig",
    "build_adjacency",
    "hop_counts",
    "message_size",
    "sample_jitters",
    "transport_seed",
]

#: Nominal wire size of a block header + signature + VRF proof, in
#: bytes; the payload rides on top (see :func:`message_size`).
BLOCK_HEADER_BYTES = 512

#: Supported jitter distributions.
JITTERS = ("fixed", "uniform", "exponential")

#: Supported gossip-relay topologies.
TOPOLOGIES = ("complete", "star", "ring", "random")


@dataclass(frozen=True)
class TransportConfig:
    """Frozen description of one WAN: links, topology, jitter.

    All fields are JSON-serialisable primitives (mirroring the scenario
    contract).  The default instance is the degenerate case — free
    links, complete graph, no jitter — under which :class:`Transport`
    is bit-identical to the slot-quantized model.

    ``latency`` and all derived delays are measured in *slot units*
    (fractions allowed); ``bandwidth`` is bytes per slot per link, with
    ``0`` meaning infinite; ``jitter_scale`` is the uniform upper bound
    or the exponential mean, and ``jitter_cap`` the exponential
    truncation point (``0`` defaults to ``8 × jitter_scale``).
    ``edge_probability`` and ``topology_seed`` parameterise the random
    topology: a ring backbone (connectivity is guaranteed — honest
    messages must reach everyone) plus seeded random chords.
    """

    latency: float = 0.0
    bandwidth: float = 0.0
    jitter: str = "fixed"
    jitter_scale: float = 0.0
    jitter_cap: float = 0.0
    topology: str = "complete"
    edge_probability: float = 0.5
    topology_seed: int = 0

    def __post_init__(self) -> None:
        if not self.latency >= 0:
            raise ValueError(f"latency must be >= 0, got {self.latency}")
        if not self.bandwidth >= 0:
            raise ValueError(
                f"bandwidth must be >= 0 (0 = infinite), got {self.bandwidth}"
            )
        if self.jitter not in JITTERS:
            known = ", ".join(JITTERS)
            raise ValueError(f"unknown jitter {self.jitter!r}; known: {known}")
        if not self.jitter_scale >= 0:
            raise ValueError(
                f"jitter_scale must be >= 0, got {self.jitter_scale}"
            )
        if not self.jitter_cap >= 0:
            raise ValueError(f"jitter_cap must be >= 0, got {self.jitter_cap}")
        if self.topology not in TOPOLOGIES:
            known = ", ".join(TOPOLOGIES)
            raise ValueError(
                f"unknown topology {self.topology!r}; known: {known}"
            )
        if not 0.0 <= self.edge_probability <= 1.0:
            raise ValueError(
                f"edge_probability must lie in [0, 1], "
                f"got {self.edge_probability}"
            )

    @property
    def exponential_cap(self) -> float:
        """The effective truncation point of the exponential jitter."""
        return self.jitter_cap if self.jitter_cap > 0 else 8 * self.jitter_scale


def message_size(block: Block) -> int:
    """Wire size of one block message, in bytes."""
    return BLOCK_HEADER_BYTES + len(block.payload.encode("utf-8"))


def sample_jitters(
    config: TransportConfig, generator: np.random.Generator, count: int
) -> list[float]:
    """``count`` draws from the configured jitter distribution.

    ``fixed`` is a constant offset of ``jitter_scale``; ``uniform``
    draws from ``[0, jitter_scale)``; ``exponential`` draws with mean
    ``jitter_scale`` truncated at :attr:`TransportConfig.
    exponential_cap`.  A scale of 0 returns zeros *without consuming
    the generator* — the degenerate configuration leaves the seeded
    stream untouched, so enabling jitter later never silently re-keys
    anything else.  One ``size=count`` draw equals ``count`` scalar
    draws value for value and leaves the generator in the same state,
    so a broadcast draws its recipients' jitter at once.
    """
    scale = config.jitter_scale
    if scale == 0 or config.jitter == "fixed":
        return [scale] * count
    if config.jitter == "uniform":
        return generator.uniform(0.0, scale, size=count).tolist()
    draws = generator.exponential(scale, size=count)
    return np.minimum(draws, config.exponential_cap).tolist()


def transport_seed(randomness: str) -> int:
    """Derive the transport's jitter seed from a run's randomness string.

    Platform-stable (SHA-256, not ``hash()``), and domain-separated from
    the VRF/signature seeds the same string feeds.
    """
    digest = hashlib.sha256(f"transport|{randomness}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


# ----------------------------------------------------------------------
# Topology
# ----------------------------------------------------------------------


def build_adjacency(
    nodes: list[str], config: TransportConfig
) -> dict[str, list[str]]:
    """The gossip graph: node → neighbours, in deterministic order.

    * ``complete`` — every pair linked (the paper's implicit graph);
    * ``star`` — the first node is the hub, everyone else a leaf;
    * ``ring`` — a cycle in list order;
    * ``random`` — a ring backbone (guaranteeing connectivity: honest
      messages must reach every party) plus chords drawn with
      ``edge_probability`` from a generator seeded by
      ``topology_seed``.  The wiring is a pure function of
      ``(nodes, config)`` — every trial of a scenario point shares it.
    """
    adjacency: dict[str, list[str]] = {name: [] for name in nodes}

    def link(a: str, b: str) -> None:
        if b not in adjacency[a]:
            adjacency[a].append(b)
            adjacency[b].append(a)

    if config.topology == "complete":
        for i, a in enumerate(nodes):
            for b in nodes[i + 1 :]:
                link(a, b)
    elif config.topology == "star":
        hub = nodes[0]
        for leaf in nodes[1:]:
            link(hub, leaf)
    elif config.topology == "ring":
        if len(nodes) == 2:
            link(nodes[0], nodes[1])
        else:
            for i, a in enumerate(nodes):
                link(a, nodes[(i + 1) % len(nodes)])
    else:  # random: ring backbone + seeded chords
        if len(nodes) == 2:
            link(nodes[0], nodes[1])
        else:
            for i, a in enumerate(nodes):
                link(a, nodes[(i + 1) % len(nodes)])
        rng = np.random.default_rng(config.topology_seed)
        for i, a in enumerate(nodes):
            for b in nodes[i + 1 :]:
                if b in adjacency[a]:
                    continue
                if rng.random() < config.edge_probability:
                    link(a, b)
    return adjacency


def hop_counts(adjacency: dict[str, list[str]], source: str) -> dict[str, int]:
    """BFS hop distance from ``source`` to every reachable node."""
    hops = {source: 0}
    frontier = deque([source])
    while frontier:
        current = frontier.popleft()
        for neighbour in adjacency[current]:
            if neighbour not in hops:
                hops[neighbour] = hops[current] + 1
                frontier.append(neighbour)
    return hops


# ----------------------------------------------------------------------
# The transport
# ----------------------------------------------------------------------


class Transport(NetworkModel):
    """The slot model's network with WAN link physics.

    A :class:`~repro.protocol.network.NetworkModel` whose
    :meth:`transits` are ``hops · (latency + size / bandwidth) +
    jitter`` instead of zero; holds, injection, the delivery queue and
    the final drain are the slot model's own.  See the module docstring
    for the delay model and the degenerate-case guarantee.

    ``seed`` keys the jitter generator; simulations derive it from
    their randomness string via :func:`transport_seed`, so a trial's
    schedule is a pure function of its per-chunk seed — the engine's
    reproducibility contract holds unchanged.
    """

    def __init__(
        self,
        recipients: list[str],
        delta: int = 0,
        config: TransportConfig | None = None,
        seed: int = 0,
    ) -> None:
        super().__init__(recipients, delta)
        self.config = config if config is not None else TransportConfig()
        self._rng = np.random.default_rng(seed)
        self._adjacency = build_adjacency(self.recipients, self.config)
        self._hops: dict[str, dict[str, int]] = {}

    def hops_from(self, sender: str | None) -> dict[str, int]:
        """Relay hop counts from ``sender`` to every recipient.

        An unknown (or ``None``) sender is treated as directly linked to
        everyone — one hop, no relays — so direct library use without a
        named sender still pays exactly one link.
        """
        if sender is None or sender not in self._adjacency:
            return {name: 1 for name in self.recipients}
        cached = self._hops.get(sender)
        if cached is None:
            cached = hop_counts(self._adjacency, sender)
            self._hops[sender] = cached
        return cached

    def transits(self, block: Block, sender: str | None) -> list[float]:
        """Transit over ``hops`` store-and-forward links, per recipient.

        ``hops · (latency + size / bandwidth) + jitter``; the jitter of
        every recipient at least one hop away is drawn in one call, in
        recipient order, and the sender's own copy is free.
        """
        per_hop = self.config.latency
        if self.config.bandwidth > 0:
            per_hop += message_size(block) / self.config.bandwidth
        routes = self.hops_from(sender)
        hops = [routes.get(recipient, 1) for recipient in self.recipients]
        jitters = iter(
            sample_jitters(self.config, self._rng, len(hops) - hops.count(0))
        )
        return [hop * per_hop + next(jitters) if hop else 0.0 for hop in hops]
