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
conservatively rounded (never optimistic) between them.  A stdlib serving tier exposes it to the network: one
route/error/metrics core (:mod:`repro.oracle.app`) behind a threaded
HTTP server (:mod:`repro.oracle.server`), optionally pre-forked across
worker processes sharing one listening socket, with background
traffic-driven refinement (:mod:`repro.oracle.refine`) tightening hot
off-grid answers while every reply stays a certified upper bound.  The
``python -m repro.oracle`` CLI (:mod:`repro.oracle.cli`) drives it
all.

See docs/ARCHITECTURE.md ("Layer 6") for the artifact-format contract.
"""

from repro.oracle.app import DEFAULT_MAX_BODY_BYTES, OracleApp
from repro.oracle.refine import (
    RefineDaemon,
    SnapTally,
    load_overlay,
    refine_once,
    save_overlay,
)
from repro.oracle.service import (
    OracleDomainError,
    SettlementOracle,
    UNREACHABLE_DEPTH,
)
from repro.oracle.server import (
    make_listening_socket,
    make_server,
    serve_forever,
)
from repro.oracle.store import (
    FORMAT,
    FORMAT_VERSION,
    StoreError,
    load_tables,
    read_manifest,
    save_tables,
    spec_fingerprint,
)
from repro.oracle.tables import (
    DEFAULT_SPEC,
    TINY_SPEC,
    BuildReport,
    OracleSpec,
    OracleTables,
    build_tables,
    effective_probabilities,
)

__all__ = [
    "BuildReport",
    "DEFAULT_MAX_BODY_BYTES",
    "DEFAULT_SPEC",
    "FORMAT",
    "FORMAT_VERSION",
    "OracleApp",
    "OracleDomainError",
    "OracleSpec",
    "OracleTables",
    "RefineDaemon",
    "SettlementOracle",
    "SnapTally",
    "StoreError",
    "TINY_SPEC",
    "UNREACHABLE_DEPTH",
    "build_tables",
    "effective_probabilities",
    "load_overlay",
    "load_tables",
    "make_listening_socket",
    "make_server",
    "read_manifest",
    "refine_once",
    "save_overlay",
    "save_tables",
    "serve_forever",
    "spec_fingerprint",
]
