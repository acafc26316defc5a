"""Settlement oracle service — the repository's sixth layer.

Everything below this package *computes* settlement numbers; this
package *serves* them.  An offline builder
(:mod:`repro.oracle.tables`) runs dense (α, uniquely-honest fraction,
Δ, k) grids through the exact Section 6.6 DP — cross-validated by
Monte-Carlo sweeps riding the engine's ``run_grid`` / ``ProcessBackend``
/ ``ResultCache`` stack — into a versioned, content-fingerprinted,
mmap-loadable artifact (:mod:`repro.oracle.store`).  The in-memory
:class:`SettlementOracle` (:mod:`repro.oracle.service`) answers single
and vectorized batch queries from that artifact: bit-identical to the
builder's one DP sweep per (α, fraction, Δ) combo at grid points,
conservatively rounded (never optimistic) between them.  A stdlib
serving tier exposes it to the network: one route/error/metrics core
(:mod:`repro.oracle.app`) behind a threaded HTTP server
(:mod:`repro.oracle.server`), optionally pre-forked across worker
processes sharing one listening socket.  Every answer is a stored
cell; a finer answer somewhere comes from a build with grid lines
there.  The ``python -m repro.oracle`` CLI (:mod:`repro.oracle.cli`)
drives it all.

See docs/ARCHITECTURE.md ("Layer 6") for the artifact-format contract.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.oracle.app": ("DEFAULT_MAX_BODY_BYTES", "OracleApp"),
        "repro.oracle.service": (
            "OracleDomainError",
            "SettlementOracle",
            "UNREACHABLE_DEPTH",
        ),
        "repro.oracle.server": (
            "make_listening_socket",
            "make_server",
            "serve_forever",
        ),
        "repro.oracle.store": (
            "FORMAT",
            "FORMAT_VERSION",
            "StoreError",
            "load_tables",
            "read_manifest",
            "save_tables",
            "spec_fingerprint",
        ),
        "repro.oracle.tables": (
            "DEFAULT_SPEC",
            "TINY_SPEC",
            "BuildReport",
            "OracleSpec",
            "OracleTables",
            "build_tables",
            "effective_probabilities",
        ),
    },
)
