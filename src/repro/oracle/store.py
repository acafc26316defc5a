"""Versioned, content-fingerprinted settlement-table artifacts.

An artifact is a directory::

    <dir>/manifest.json        # format, version, spec, fingerprint, checksums
    <dir>/forward.npy          # float64 (|α|, |frac|, |Δ|, |k|)
    <dir>/minimal_depth.npy    # int64   (|α|, |frac|, |Δ|, |targets|)

The **fingerprint** is the SHA-256 of the canonical JSON of
``{"format", "format_version", "spec"}`` — the same canonical digest
the engine's :class:`~repro.engine.cache.ResultCache` keys its chunk
ledgers with, and with the same invalidation rule: *any*
component change (an axis value, the activity, the MC configuration,
the format version) is a different fingerprint, and identical
components always collapse to the same one.  ``build_tables`` uses this
to make a rebuild with identical parameters a complete no-op.

Arrays are plain ``.npy`` files so :func:`load_tables` can hand the
query service **memory-mapped** (read-only) views: a server process
touches only the pages its queries hit, and many processes serving the
same artifact share one page-cache copy.  Per-array SHA-256 checksums
in the manifest catch truncated or tampered files at load time.

Every file — arrays and manifest alike — is written through a
same-directory temporary and an atomic rename, the manifest last.  A
crashed build therefore never leaves partially-written bytes under any
artifact name (at worst: new arrays beside the previous manifest, which
the load rejects by checksum), and rebuilding
into a directory that live servers have mmap-mapped never truncates an
inode under them — their old view stays consistent until they reload.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
import tempfile

import numpy as np

from repro.engine.cache import ResultCache
from repro.oracle.tables import OracleSpec, OracleTables

__all__ = [
    "FORMAT",
    "FORMAT_VERSION",
    "StoreError",
    "load_tables",
    "manifest_path",
    "read_manifest",
    "save_tables",
    "spec_fingerprint",
    "spec_key",
]

#: Artifact family name; a different format is never silently readable.
FORMAT = "repro-settlement-oracle-tables"
#: Bumped on any incompatible layout change; part of the fingerprint.
#: v2: ``OracleSpec`` grew ``mc_target_se`` (adaptive cross-check), so
#: v1 manifests re-fingerprint differently — the version check turns
#: that into an accurate "incompatible version" error instead of a
#: misleading "manifest edited" one.
#: v3: the artifact grew the ``analytic_depth`` array (certified
#: Theorem 1 fallback for DP-unreachable minimal-depth cells); v2
#: artifacts lack the file, so they must rebuild rather than load.
#: v4: ``forward`` cells are read off the combo's one DP sweep to the
#: depth horizon instead of per-k DP runs; they can differ from v3
#: cells in the last ulp, so a v3 artifact must rebuild rather than
#: serve cells that differ from a fresh build.
#: v5: ``minimal_depth`` stores the depth each cell serves, certified
#: Theorem 1 depths included, and the ``analytic_depth`` array is gone;
#: a v4 ``minimal_depth`` holds −1 where v5 serves a certified depth,
#: so a v4 artifact must rebuild rather than lose those answers.
FORMAT_VERSION = 5

_ARRAYS = {
    "forward": ("forward.npy", np.float64),
    "minimal_depth": ("minimal_depth.npy", np.int64),
}


class StoreError(RuntimeError):
    """A missing, foreign, or corrupt artifact."""


def spec_key(spec: OracleSpec) -> dict:
    """The canonical (JSON-ready) identity of an artifact build."""
    return {
        "format": FORMAT,
        "format_version": FORMAT_VERSION,
        "spec": dataclasses.asdict(spec),
    }


def spec_fingerprint(spec: OracleSpec) -> str:
    """SHA-256 over the canonical serialization of :func:`spec_key`.

    Delegates to :meth:`ResultCache.digest` so the oracle's artifacts
    and the engine's chunk ledger share one keying discipline.
    """
    return ResultCache.digest(spec_key(spec))


def manifest_path(directory: str | os.PathLike) -> pathlib.Path:
    """Where the manifest of ``directory``'s artifact lives."""
    return pathlib.Path(directory) / "manifest.json"


def read_manifest(directory: str | os.PathLike) -> dict | None:
    """The parsed manifest, or ``None`` when absent/unreadable/foreign."""
    try:
        manifest = json.loads(manifest_path(directory).read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(manifest, dict) or manifest.get("format") != FORMAT:
        return None
    return manifest


def _sha256_file(path: pathlib.Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _atomic_replace(
    directory: pathlib.Path, target: pathlib.Path, write, binary: bool
) -> None:
    """Write through a same-directory temporary and an atomic rename.

    Every artifact file goes through this — arrays included — for two
    reasons: a crashed build can leave at worst an orphan temporary,
    never a target file with partial bytes; and a rebuild into a *live*
    directory never truncates an inode a serving process has
    mmap-mapped (the old file stays intact under its open handles, the
    new one takes over the name).
    """
    descriptor, temp_name = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(descriptor, "wb" if binary else "w") as handle:
            write(handle)
        os.replace(temp_name, target)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


def save_tables(
    tables: OracleTables, directory: str | os.PathLike
) -> pathlib.Path:
    """Write ``tables`` as an artifact; returns the manifest path.

    Every file lands by atomic rename, arrays first and the manifest
    last, so a half-written artifact is never loadable and existing
    mmap readers of a rebuilt directory keep their consistent old view.
    """
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = {}
    for name, (filename, dtype) in _ARRAYS.items():
        array = np.ascontiguousarray(getattr(tables, name), dtype=dtype)
        path = directory / filename
        _atomic_replace(
            directory, path, lambda handle: np.save(handle, array), binary=True
        )
        entries[name] = {
            "file": filename,
            "dtype": str(array.dtype),
            "shape": list(array.shape),
            "sha256": _sha256_file(path),
        }
    manifest = {
        **spec_key(tables.spec),
        "fingerprint": spec_fingerprint(tables.spec),
        "arrays": entries,
    }
    target = manifest_path(directory)
    payload = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    _atomic_replace(
        directory, target, lambda handle: handle.write(payload), binary=False
    )
    return target


def load_tables(directory: str | os.PathLike) -> OracleTables:
    """Load an artifact back into an :class:`OracleTables`.

    The arrays are mapped read-only — the OS shares their pages across
    processes.  Each array file's SHA-256 is first recomputed against
    the manifest (one streaming read; cheap next to any build) and the
    fingerprint re-derived from the stored spec, so a truncated file or
    a manifest edited by hand is rejected rather than trusted.
    """
    directory = pathlib.Path(directory)
    manifest = read_manifest(directory)
    if manifest is None:
        raise StoreError(f"no {FORMAT} artifact at {directory}")
    if manifest.get("format_version") != FORMAT_VERSION:
        raise StoreError(
            f"artifact at {directory} has format_version "
            f"{manifest.get('format_version')}, expected {FORMAT_VERSION}"
        )
    try:
        spec = OracleSpec(
            **{
                key: tuple(value) if isinstance(value, list) else value
                for key, value in manifest["spec"].items()
            }
        )
    except (KeyError, TypeError, ValueError) as error:
        raise StoreError(f"artifact spec at {directory} is invalid: {error}")
    if manifest.get("fingerprint") != spec_fingerprint(spec):
        raise StoreError(
            f"artifact at {directory} fails its fingerprint check "
            "(manifest edited, or written by an incompatible version)"
        )
    loaded = {}
    for name, (filename, dtype) in _ARRAYS.items():
        entry = manifest.get("arrays", {}).get(name)
        if entry is None:
            raise StoreError(f"artifact at {directory} lacks array {name!r}")
        path = directory / entry["file"]
        if not path.is_file():
            raise StoreError(f"artifact array file missing: {path}")
        if _sha256_file(path) != entry["sha256"]:
            raise StoreError(f"artifact array corrupt (checksum): {path}")
        array = np.load(path, mmap_mode="r")
        if array.dtype != np.dtype(dtype) or list(array.shape) != list(
            entry["shape"]
        ):
            raise StoreError(
                f"artifact array {name!r} has dtype/shape "
                f"{array.dtype}/{array.shape}, manifest says "
                f"{entry['dtype']}/{entry['shape']}"
            )
        loaded[name] = array
    return OracleTables(spec=spec, **loaded)
