"""Per-node validation: the reference cost model of the protocol run.

:class:`~repro.protocol.simulation.Simulation` computes each received
block's hash, signature check and eligibility verdict once and shares
them across the node set.  :func:`per_node_validation` turns a freshly
built simulation into the reference form of the same run, as
independent deployments would execute it: every node hashes, verifies
and judges eligibility for itself, nothing is memoised, and the
adversary observes every delivery.  The two forms must give
bit-identical executions.
"""

from repro.protocol.node import HonestNode
from repro.protocol.simulation import Simulation


def per_node_validation(simulation: Simulation) -> Simulation:
    """Rewire a simulation that has not run yet to per-node validation."""
    simulation.nodes = {
        name: HonestNode(
            name,
            node.keypair,
            node.signatures,
            node.tie_break,
            simulation._check_eligibility_uncached,
        )
        for name, node in simulation.nodes.items()
    }
    simulation._observe = simulation.adversary.observe_block
    return simulation
