"""Batched kernel engine: vectorized recurrences behind a scenario API.

Five layers (bottom to top):

* :mod:`repro.engine.kernels` — batched NumPy implementations of the
  Theorem 5 recurrences on ``(trials, T)`` uint8 symbol matrices:
  sampling, the reach reflected walk, the joint ``(ρ, μ)`` recurrence,
  Catalan-slot detection, and the ρ_Δ reduction map.  The scalar
  reference implementations in :mod:`repro.core` / :mod:`repro.delta`
  are kept as cross-validation oracles.
* :mod:`repro.engine.scenarios` — a frozen :class:`Scenario` dataclass
  plus a registry of declarative Monte-Carlo workloads (i.i.d.,
  Δ-synchronous–reduced, martingale-damped).
* :mod:`repro.engine.runner` — :class:`ExperimentRunner`: chunked
  batching of a scenario against an estimator, each chunk seeded by its
  own spawned ``SeedSequence`` child, with :class:`Estimate`
  aggregation.
* :mod:`repro.engine.sweeps` (with :mod:`repro.engine.parallel` and
  :mod:`repro.engine.cache`) — the orchestration layer:
  :class:`SweepGrid` expands parameter grids into scenario points,
  :class:`ProcessBackend` fans chunks across cores with identical
  results, and :class:`ResultCache` ledgers every computed chunk on
  disk so nothing is sampled twice.
  :class:`~repro.engine.distributed.DistributedBackend` drives the same
  chunk contract on ``python -m repro.worker`` hosts over a socket
  protocol — all three backends are bit-identical by the per-chunk
  seed-tree contract.
* :mod:`repro.engine.protocol` — the protocol-execution workload:
  :class:`ProtocolScenario` describes a full Section 2 protocol
  configuration, samples batches of independent ``Simulation`` runs
  under the same chunked seed tree, and plugs the executable protocol
  into the runner / parallel / cache / sweep layers unchanged.

See ``docs/ARCHITECTURE.md`` for the full map and the reproducibility
contract.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.engine.scenarios": (
            "Batch",
            "Scenario",
            "get_scenario",
            "register",
            "scenario_names",
        ),
        "repro.engine.runner": (
            "Estimate",
            "ExperimentRunner",
            "NoConsecutiveCatalanInWindow",
            "NoUniqueCatalanInWindow",
            "RunReport",
            "chunk_sizes",
            "delta_settlement_violation",
            "estimate_from_hits",
            "run_chunk",
            "run_scenario",
            "settlement_violation",
        ),
        "repro.engine.cache": ("ResultCache", "cache_from_env"),
        "repro.engine.parallel": (
            "Backend",
            "ProcessBackend",
            "SerialBackend",
        ),
        "repro.engine.distributed": ("DistributedBackend", "RemoteTaskError"),
        "repro.engine.protocol": (
            "ProtocolBatch",
            "ProtocolRunner",
            "ProtocolScenario",
            "protocol_cp_violation",
            "protocol_deep_reorg",
            "protocol_settlement_violation",
        ),
        "repro.engine.sweeps": (
            "SweepGrid",
            "SweepPoint",
            "get_grid",
            "grid_names",
            "register_grid",
            "run_grid",
            "select_points",
        ),
    },
    submodules=("kernels",),
)
