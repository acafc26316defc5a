"""repro — Consistency of PoS blockchains with concurrent honest slot leaders.

A from-scratch Python reproduction of Kiayias, Quader and Russell,
*"Consistency of Proof-of-Stake Blockchains with Concurrent Honest Slot
Leaders"* (ICDCS 2020, arXiv:2001.06403): the multi-leader fork
framework, Catalan slots and the Unique Vertex Property, the relative
margin recurrence with the exact settlement-probability algorithm
(Table 1), the generating-function error bounds, the Δ-synchronous
reduction, and an executable PoS longest-chain protocol with rushing
adversaries that the combinatorial model is validated against.

Quick start::

    from repro import settlement_violation_probability, from_adversarial_stake

    params = from_adversarial_stake(alpha=0.20, unique_fraction=0.8)
    risk = settlement_violation_probability(params, k=100)
    # exact Pr[a slot is not 100-settled]  ≈ 5.1e-8 (Table 1)

Every export is lazy (PEP 562, :mod:`repro._lazy`): a name's module,
and a subpackage such as ``repro.engine``, is imported on first use, so
``import repro.analysis.exact`` loads only the exact DP and what it
needs, not the protocol simulator, the backends or the oracle.

See README.md for the architecture and EXPERIMENTS.md for the
paper-versus-measured record.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core.adversary_star": ("AdversaryStar", "build_canonical_fork"),
        "repro.core.alphabet": ("CharacteristicString",),
        "repro.core.catalan": ("catalan_slots", "is_catalan"),
        "repro.core.distributions": (
            "SlotProbabilities",
            "bernoulli_condition",
            "bivalent_condition",
            "from_adversarial_stake",
            "semi_synchronous_condition",
        ),
        "repro.core.forks": ("Fork", "Tine", "Vertex"),
        "repro.core.margin": ("margin", "relative_margin"),
        "repro.core.reach": ("rho",),
        "repro.core.settlement": ("is_k_settled", "settlement_time"),
        "repro.core.uvp": ("has_uvp", "uvp_slots"),
        "repro.analysis.exact": (
            "settlement_table",
            "settlement_violation_probability",
        ),
        "repro.analysis.bounds": (
            "theorem1_settlement_bound",
            "theorem2_settlement_bound",
            "theorem7_settlement_bound",
            "theorem8_cp_bound",
        ),
        "repro.delta.reduction": ("reduce_string",),
        "repro.engine.cache": ("ResultCache",),
        "repro.engine.runner": ("Estimate", "ExperimentRunner", "run_scenario"),
        "repro.engine.scenarios": ("Scenario", "get_scenario", "scenario_names"),
        "repro.engine.sweeps": ("SweepGrid", "get_grid", "grid_names", "run_grid"),
        "repro.protocol.leader": ("StakeDistribution",),
        "repro.protocol.simulation": ("Simulation",),
    },
)
