"""Per-node validation: the reference cost model of the protocol run.

:class:`~repro.protocol.simulation.Simulation` judges each received
block once, through one validity memo, and indexes it once, in one
block index all its nodes' trees share.  :func:`per_node_validation`
turns a freshly built simulation into the reference form of the same
run, as independent deployments would execute it: every node hashes,
verifies and judges eligibility for itself, keeps its own block index,
and nothing is memoised.  The two forms must give bit-identical
executions.
"""

from repro.protocol.node import HonestNode, validity_check
from repro.protocol.simulation import Simulation


def per_node_validation(simulation: Simulation) -> Simulation:
    """Rewire a simulation that has not run yet to per-node validation."""
    simulation.nodes = {
        name: HonestNode(
            name,
            node.keypair,
            node.signatures,
            node.tie_break,
            validity_check(node.signatures, simulation._check_eligibility),
        )
        for name, node in simulation.nodes.items()
    }
    return simulation
