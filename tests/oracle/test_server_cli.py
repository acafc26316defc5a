"""The ``python -m repro.oracle`` CLI (HTTP serving is covered by
test_serving_modes.py)."""

import json

import pytest

from repro.analysis.exact import compute_settlement_probabilities
from repro.oracle import cli, server
from repro.oracle.store import save_tables
from repro.oracle.tables import (
    OracleSpec,
    build_tables,
    effective_probabilities,
)

SPEC = OracleSpec(
    alphas=(0.1, 0.2),
    unique_fractions=(0.5, 1.0),
    deltas=(0, 2),
    depths=(5, 10),
    targets=(1e-1, 1e-2),
    activity=0.05,
)


@pytest.fixture(scope="module")
def tables():
    return build_tables(SPEC).tables


class TestCli:
    def test_build_query_info_round_trip(self, tmp_path, capsys):
        artifact = tmp_path / "artifact"
        code = cli.main(
            [
                "build",
                "--out",
                str(artifact),
                "--preset",
                "tiny",
                "--alphas",
                "0.1,0.2",
                "--fractions",
                "0.5,1.0",
                "--deltas",
                "0,2",
                "--depths",
                "5,10",
                "--targets",
                "0.1,0.01",
                "--mc-trials",
                "0",
            ]
        )
        assert code == 0
        assert "built" in capsys.readouterr().out

        assert cli.main(["info", str(artifact)]) == 0
        described = json.loads(capsys.readouterr().out)
        assert described["alphas"] == [0.1, 0.2]

        assert (
            cli.main(
                [
                    "query",
                    str(artifact),
                    "--alpha",
                    "0.2",
                    "--fraction",
                    "1.0",
                    "--delta",
                    "0",
                    "--depth",
                    "10",
                ]
            )
            == 0
        )
        answer = json.loads(capsys.readouterr().out)
        law = effective_probabilities(0.2, 1.0, 0, 0.05)
        sweep = compute_settlement_probabilities(
            law, list(range(1, SPEC.depth_horizon + 1))
        )
        assert answer["violation_probability"] == sweep[10]

        # Identical rebuild: no-op.
        assert (
            cli.main(
                [
                    "build",
                    "--out",
                    str(artifact),
                    "--preset",
                    "tiny",
                    "--alphas",
                    "0.1,0.2",
                    "--fractions",
                    "0.5,1.0",
                    "--deltas",
                    "0,2",
                    "--depths",
                    "5,10",
                    "--targets",
                    "0.1,0.01",
                    "--mc-trials",
                    "0",
                ]
            )
            == 0
        )
        assert "no-op" in capsys.readouterr().out

    def test_query_needs_exactly_one_direction(self, tables, tmp_path, capsys):
        artifact = tmp_path / "artifact"
        save_tables(tables, artifact)
        code = cli.main(
            [
                "query",
                str(artifact),
                "--alpha",
                "0.1",
                "--fraction",
                "1.0",
                "--delta",
                "0",
            ]
        )
        assert code == 2
        assert "exactly one" in capsys.readouterr().err

    def test_info_on_missing_artifact(self, tmp_path, capsys):
        assert cli.main(["info", str(tmp_path / "missing")]) == 2
        assert "artifact" in capsys.readouterr().err

    def test_serve_flags_reach_serve_forever(
        self, tables, tmp_path, monkeypatch
    ):
        artifact = tmp_path / "artifact"
        save_tables(tables, artifact)
        captured = {}
        monkeypatch.setattr(
            server,
            "serve_forever",
            lambda oracle, **kwargs: captured.update(kwargs),
        )
        assert (
            cli.main(
                [
                    "serve",
                    str(artifact),
                    "--port",
                    "0",
                    "--quiet",
                    "--workers",
                    "3",
                    "--max-body-bytes",
                    "1024",
                    "--refine",
                    "--refine-interval",
                    "0.5",
                    "--refine-top",
                    "4",
                ]
            )
            == 0
        )
        assert captured["workers"] == 3
        assert captured["max_body_bytes"] == 1024
        assert captured["refine_path"] == str(artifact / "overlay.json")
        assert captured["refine_interval"] == 0.5
        assert captured["refine_top"] == 4

    def test_serve_refine_defaults_off(self, tables, tmp_path, monkeypatch):
        artifact = tmp_path / "artifact"
        save_tables(tables, artifact)
        captured = {}
        monkeypatch.setattr(
            server,
            "serve_forever",
            lambda oracle, **kwargs: captured.update(kwargs),
        )
        assert cli.main(["serve", str(artifact), "--port", "0"]) == 0
        assert captured["workers"] == 1
        assert captured["refine_path"] is None
