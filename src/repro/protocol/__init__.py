"""Executable PoS longest-chain protocol (the system the paper analyses).

The combinatorial model of Section 2 abstracts a concrete protocol:
parties hold stake, a VRF-based lottery elects slot leaders, leaders sign
blocks extending the longest chain they know, and a (possibly delayed,
adversarially scheduled) network carries the blocks.  This subpackage
implements that protocol end to end:

* :mod:`repro.protocol.crypto` — ideal hash/signature/VRF functionalities;
* :mod:`repro.protocol.block` — hash-chained blocks and block trees;
* :mod:`repro.protocol.leader` — stake-weighted leader election;
* :mod:`repro.protocol.tiebreak` — the A0 and A0′ chain-selection rules;
* :mod:`repro.protocol.network` — synchronous and Δ-bounded networks with
  a rushing adversary;
* :mod:`repro.protocol.events` — the deterministic discrete-event core
  (monotone clock, stable ``(time, sequence)`` ordering);
* :mod:`repro.protocol.transport` — continuous-time WAN delivery
  (per-link latency + bandwidth, gossip topologies, seeded jitter) with
  the slot model as its degenerate case;
* :mod:`repro.protocol.node` — honest longest-chain nodes;
* :mod:`repro.protocol.adversary` — protocol-level attack strategies;
* :mod:`repro.protocol.simulation` — the slot-driven engine and the
  execution→fork extractor that closes the loop with the paper's model.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.protocol.block": ("Block", "BlockTree", "genesis_block"),
        "repro.protocol.crypto": (
            "IdealSignatureScheme",
            "IdealVrf",
            "hash_data",
        ),
        "repro.protocol.leader": (
            "LeaderSchedule",
            "StakeDistribution",
            "VrfLeaderElection",
        ),
        "repro.protocol.events": ("Event", "EventScheduler"),
        "repro.protocol.network": ("NetworkModel",),
        "repro.protocol.node": ("HonestNode",),
        "repro.protocol.simulation": (
            "DelayDistribution",
            "Simulation",
            "SimulationResult",
        ),
        "repro.protocol.transport": ("Transport", "TransportConfig"),
    },
)
