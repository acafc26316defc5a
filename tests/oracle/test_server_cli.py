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

    def test_build_rejects_negative_mc_seed_before_building(
        self, tmp_path, capsys
    ):
        artifact = tmp_path / "artifact"
        code = cli.main(
            ["build", "--preset", "tiny", "--mc-seed", "-1", "--out",
             str(artifact)]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "building" not in captured.out
        assert "mc_seed must be non-negative" in captured.err
        assert not artifact.exists()

    @pytest.mark.parametrize("flag", ["--out", "--trace"])
    def test_build_rejects_unwritable_path_before_building(
        self, tmp_path, capsys, flag
    ):
        (tmp_path / "afile").write_text("")
        artifact = tmp_path / "artifact"
        paths = {"--out": str(artifact), flag: str(tmp_path / "afile" / "x")}
        argv = ["build", "--preset", "tiny", "--mc-trials", "0"] + [
            token for pair in paths.items() for token in pair
        ]
        if flag == "--out":
            assert cli.main(argv) == 2
        else:
            # A shared run flag: rejected the argparse way, as SystemExit.
            with pytest.raises(SystemExit) as exit_info:
                cli.main(argv)
            assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {flag}: {tmp_path / 'afile'} is not a directory\n"
        )
        assert not artifact.exists()

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
                ]
            )
            == 0
        )
        assert captured["workers"] == 3
        assert captured["max_body_bytes"] == 1024

    @pytest.mark.parametrize(
        "flag",
        [
            ["--refine"],
            ["--refine-path", "overlay.json"],
            ["--refine-interval", "1"],
            ["--refine-top", "5"],
        ],
    )
    def test_serve_rejects_refinement_flags(self, tmp_path, flag, capsys):
        # Finer answers come from `build` grid lines; serve has no
        # refinement knob left to accept silently.
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["serve", str(tmp_path / "artifact"), *flag])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_build_grid_lines_make_an_off_grid_query_exact(
        self, tmp_path, capsys
    ):
        # The CLI form of a build-time grid line: a rebuild with the
        # query's lattice lines answers it with the DP at that point.
        flags = [
            "--preset",
            "tiny",
            "--targets",
            "0.1,0.01",
            "--mc-trials",
            "0",
        ]
        coarse, fine = tmp_path / "coarse", tmp_path / "fine"
        assert cli.main(["build", "--out", str(coarse), *flags]) == 0
        assert (
            cli.main(
                [
                    "build",
                    "--out",
                    str(fine),
                    *flags,
                    "--alphas",
                    "0.1,0.140625,0.2,0.3",
                    "--fractions",
                    "0.5,0.828125,1.0",
                    "--deltas",
                    "0,1,2",
                    "--depths",
                    "5,7,10,20,30",
                ]
            )
            == 0
        )
        capsys.readouterr()
        query = [
            "--alpha",
            "0.13",
            "--fraction",
            "0.83",
            "--delta",
            "1",
            "--depth",
            "7",
        ]
        answers = []
        for artifact in (coarse, fine):
            assert cli.main(["query", str(artifact), *query]) == 0
            answers.append(
                json.loads(capsys.readouterr().out)["violation_probability"]
            )
        law = effective_probabilities(9 / 64, 53 / 64, 1, 0.05)
        sweep = compute_settlement_probabilities(law, list(range(1, 31)))
        assert answers[1] == sweep[7]
        assert 0 < answers[1] < answers[0]
