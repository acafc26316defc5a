"""Artifact round-trip, fingerprint keying, corruption detection, no-op."""

import dataclasses
import json

import numpy as np
import pytest

from repro.oracle import store
from repro.oracle.store import (
    FORMAT,
    StoreError,
    load_tables,
    manifest_path,
    read_manifest,
    save_tables,
    spec_fingerprint,
)
from repro.oracle.tables import OracleSpec, build_tables

SPEC = OracleSpec(
    alphas=(0.1, 0.3),
    unique_fractions=(0.5, 1.0),
    deltas=(0, 2),
    depths=(4, 8),
    targets=(1e-1, 1e-2),
    activity=0.05,
)


@pytest.fixture(scope="module")
def tables():
    return build_tables(SPEC).tables


class TestRoundTrip:
    def test_save_load_identical(self, tables, tmp_path):
        save_tables(tables, tmp_path)
        loaded = load_tables(tmp_path)
        assert loaded.spec == SPEC
        assert np.array_equal(loaded.forward, tables.forward)
        assert np.array_equal(loaded.minimal_depth, tables.minimal_depth)

    def test_mmap_load_is_read_only(self, tables, tmp_path):
        save_tables(tables, tmp_path)
        loaded = load_tables(tmp_path)
        assert isinstance(loaded.forward, np.memmap)
        with pytest.raises(ValueError):
            loaded.forward[0, 0, 0, 0] = 0.5

    def test_manifest_is_self_describing(self, tables, tmp_path):
        save_tables(tables, tmp_path)
        manifest = read_manifest(tmp_path)
        assert manifest["format"] == FORMAT
        assert manifest["fingerprint"] == spec_fingerprint(SPEC)
        assert manifest["spec"]["alphas"] == [0.1, 0.3]
        assert set(manifest["arrays"]) == {"forward", "minimal_depth"}


class TestFingerprint:
    def test_identical_specs_collapse(self):
        clone = OracleSpec(**dataclasses.asdict(SPEC))
        assert spec_fingerprint(clone) == spec_fingerprint(SPEC)

    def test_any_component_change_rekeys(self):
        for change in (
            {"alphas": (0.1, 0.31)},
            {"depths": (4, 9)},
            {"targets": (1e-1, 1e-3)},
            {"activity": 0.06},
            {"mc_seed": 1},
        ):
            assert spec_fingerprint(
                dataclasses.replace(SPEC, **change)
            ) != spec_fingerprint(SPEC)


class TestCorruption:
    def test_missing_artifact(self, tmp_path):
        with pytest.raises(StoreError, match="no .* artifact"):
            load_tables(tmp_path / "nowhere")

    def test_truncated_array_rejected(self, tables, tmp_path):
        save_tables(tables, tmp_path)
        path = tmp_path / "forward.npy"
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(StoreError, match="checksum|shape"):
            load_tables(tmp_path)

    def test_edited_manifest_rejected(self, tables, tmp_path):
        save_tables(tables, tmp_path)
        manifest = json.loads(manifest_path(tmp_path).read_text())
        manifest["spec"]["alphas"] = [0.1, 0.25]  # lie about the grid
        manifest_path(tmp_path).write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match="fingerprint"):
            load_tables(tmp_path)

    def test_foreign_version_rejected(self, tables, tmp_path):
        save_tables(tables, tmp_path)
        manifest = json.loads(manifest_path(tmp_path).read_text())
        manifest["format_version"] = 99
        manifest_path(tmp_path).write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match="format_version"):
            load_tables(tmp_path)


def save_old_artifact(tables, directory, monkeypatch):
    """Save ``tables`` under a format-4 manifest."""
    with monkeypatch.context() as patch:
        patch.setattr(store, "FORMAT_VERSION", 4)
        save_tables(tables, directory)


class TestV3Artifacts:
    # v5 depth cells past the DP horizon hold certified depths; an older
    # artifact's -1 there would drop answers a fresh build serves.
    def test_v3_manifest_refused(self, tables, tmp_path, monkeypatch):
        save_old_artifact(tables, tmp_path, monkeypatch)
        assert read_manifest(tmp_path)["format_version"] == 4
        with pytest.raises(StoreError, match="format_version"):
            load_tables(tmp_path)

    def test_v3_artifact_rebuilds(self, tables, tmp_path, monkeypatch):
        save_old_artifact(tables, tmp_path, monkeypatch)
        report = build_tables(SPEC, out_dir=tmp_path)
        assert report.rebuilt
        manifest = read_manifest(tmp_path)
        assert manifest["format_version"] == store.FORMAT_VERSION == 5
        assert manifest["fingerprint"] == spec_fingerprint(SPEC)
        assert np.array_equal(load_tables(tmp_path).forward, tables.forward)

    def test_v4_layout_refused(self, tables, tmp_path, monkeypatch):
        """A v4 layout, with its third depth array, is refused by its
        version rather than loaded with that array ignored."""
        save_old_artifact(tables, tmp_path, monkeypatch)
        third = "analytic_depth"
        np.save(tmp_path / third, np.asarray(tables.minimal_depth))
        manifest = json.loads(manifest_path(tmp_path).read_text())
        manifest["arrays"][third] = {
            **manifest["arrays"]["minimal_depth"],
            "file": f"{third}.npy",
        }
        manifest_path(tmp_path).write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match="format_version 4, expected 5"):
            load_tables(tmp_path)


class TestAtomicReplace:
    def test_rebuild_never_truncates_under_live_mmap_readers(
        self, tables, tmp_path
    ):
        """Arrays land by atomic rename: a rebuild into a directory a
        server has mmap-mapped must leave the old inode (and hence the
        old reader's view) intact, not truncate it in place."""
        save_tables(tables, tmp_path)
        live = load_tables(tmp_path)
        before = np.array(live.forward)  # snapshot of the mapped view
        changed = dataclasses.replace(SPEC, depths=(4, 8, 12))
        build_tables(changed, out_dir=tmp_path, force=True)
        # The old mapping still reads the original bytes...
        assert np.array_equal(np.asarray(live.forward), before)
        # ...while a fresh load sees the new artifact.
        assert load_tables(tmp_path).spec == changed

    def test_no_stray_temporaries_after_save(self, tables, tmp_path):
        save_tables(tables, tmp_path)
        assert not list(tmp_path.glob("*.tmp"))


class TestNoopRebuild:
    def test_matching_fingerprint_skips_build(self, tmp_path, monkeypatch):
        first = build_tables(SPEC, out_dir=tmp_path)
        assert first.rebuilt
        # A rebuild must not even enter the DP.
        import repro.oracle.tables as tables_module

        def exploding(*args):  # pragma: no cover - must not run
            raise AssertionError("no-op rebuild recomputed a DP cell")

        monkeypatch.setattr(tables_module, "_dp_rows", exploding)
        second = build_tables(SPEC, out_dir=tmp_path)
        assert not second.rebuilt
        assert np.array_equal(
            second.tables.forward, first.tables.forward
        )

    def test_spec_change_rebuilds(self, tmp_path):
        build_tables(SPEC, out_dir=tmp_path)
        changed = dataclasses.replace(SPEC, depths=(4, 8, 12))
        report = build_tables(changed, out_dir=tmp_path)
        assert report.rebuilt
        assert read_manifest(tmp_path)["fingerprint"] == spec_fingerprint(
            changed
        )

    def test_force_rebuilds(self, tmp_path):
        build_tables(SPEC, out_dir=tmp_path)
        assert build_tables(SPEC, out_dir=tmp_path, force=True).rebuilt
