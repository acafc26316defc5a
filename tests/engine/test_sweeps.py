"""SweepGrid expansion, run_grid orchestration, the CLI, and the
boundary-corrected ``estimate_from_hits``."""

import dataclasses
import json
import math

import pytest
from hypothesis import given, strategies as st

import repro.sweep as sweep_cli
from repro.engine import (
    ExperimentRunner,
    ProcessBackend,
    ResultCache,
    SweepGrid,
    estimate_from_hits,
    get_grid,
    grid_names,
    run_grid,
    select_points,
)


class TestGridExpansion:
    def test_product_order_last_axis_fastest(self):
        grid = SweepGrid(
            name="t-order",
            base="iid-settlement",
            axes=(("alpha", (0.1, 0.2)), ("depth", (5, 10))),
            trials=100,
            seed=50,
        )
        points = grid.points()
        assert [p.params for p in points] == [
            {"alpha": 0.1, "depth": 5},
            {"alpha": 0.1, "depth": 10},
            {"alpha": 0.2, "depth": 5},
            {"alpha": 0.2, "depth": 10},
        ]
        assert [p.seed for p in points] == [50, 51, 52, 53]
        assert grid.size() == 4

    def test_virtual_axes_resolve_to_probabilities(self):
        grid = SweepGrid(
            name="t-virtual",
            base="iid-settlement",
            axes=(("alpha", (0.25,)), ("unique_fraction", (0.4,))),
            trials=100,
            seed=0,
        )
        (point,) = grid.points()
        probabilities = point.scenario.probabilities
        assert probabilities.p_adversarial == pytest.approx(0.25)
        assert probabilities.p_unique == pytest.approx(0.75 * 0.4)

    def test_fixed_alpha_override_with_fraction_axis(self):
        grid = SweepGrid(
            name="t-fixed-alpha",
            base="iid-settlement",
            axes=(("unique_fraction", (0.5,)),),
            trials=100,
            seed=0,
            overrides=(("alpha", 0.2),),
        )
        (point,) = grid.points()
        assert point.scenario.probabilities.p_adversarial == pytest.approx(0.2)

    def test_fraction_axis_without_alpha_rejected(self):
        grid = SweepGrid(
            name="t-no-alpha",
            base="iid-settlement",
            axes=(("unique_fraction", (0.5,)),),
            trials=100,
            seed=0,
        )
        with pytest.raises(ValueError, match="alpha"):
            grid.points()

    def test_field_axis_overrides_scenario(self):
        grid = SweepGrid(
            name="t-depth",
            base="iid-settlement",
            axes=(("depth", (7, 9)),),
            trials=100,
            seed=0,
        )
        assert [p.scenario.depth for p in grid.points()] == [7, 9]

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one axis"):
            SweepGrid(name="t", base="iid-settlement", axes=(), trials=1, seed=0)
        with pytest.raises(ValueError, match="duplicate axis"):
            SweepGrid(
                name="t",
                base="iid-settlement",
                axes=(("depth", (1,)), ("depth", (2,))),
                trials=1,
                seed=0,
            )
        with pytest.raises(ValueError, match="no values"):
            SweepGrid(
                name="t",
                base="iid-settlement",
                axes=(("depth", ()),),
                trials=1,
                seed=0,
            )
        with pytest.raises(ValueError, match="unknown estimator"):
            SweepGrid(
                name="t",
                base="iid-settlement",
                axes=(("depth", (5,)),),
                trials=1,
                seed=0,
                estimator="nope",
            )

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("trials", 0, "trials must be positive"),
            ("seed", -1, "seed must be non-negative"),
            ("chunk_size", 0, "chunk_size must be positive"),
        ],
    )
    def test_run_knobs_validated_at_construction(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(get_grid("stake"), **{field: value})


class TestRunGrid:
    GRID = SweepGrid(
        name="t-run",
        base="iid-settlement",
        axes=(("depth", (8, 12)),),
        trials=2_000,
        seed=30,
        chunk_size=512,
    )

    def test_rows_match_direct_runner_calls(self):
        rows = run_grid(self.GRID)
        for row, point in zip(rows, self.GRID.points()):
            direct = ExperimentRunner(
                point.scenario, chunk_size=512
            ).run(2_000, point.seed)
            assert row["value"] == direct.value
            assert row["standard_error"] == direct.standard_error
            assert row["trials"] == 2_000
            assert row["cached"] is False

    def test_parallel_grid_identical_to_serial(self):
        with ProcessBackend(2) as pool:
            assert run_grid(self.GRID) == run_grid(self.GRID, backend=pool)

    def test_cache_round_trip_marks_rows(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = run_grid(self.GRID, cache=cache)
        warm = run_grid(self.GRID, cache=cache)
        assert all(not row["cached"] for row in cold)
        assert all(row["cached"] for row in warm)
        for cold_row, warm_row in zip(cold, warm):
            assert cold_row["value"] == warm_row["value"]
            assert cold_row["standard_error"] == warm_row["standard_error"]
        # 2,000 trials in 512-trial chunks: 4 chunks per point, all
        # stored cold, none re-stored warm.
        assert cache.chunk_stores == 4 * len(cold)

    def test_trials_override_rekeys(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_grid(self.GRID, cache=cache)
        rerun = run_grid(self.GRID, trials=2_001, cache=cache)
        assert all(not row["cached"] for row in rerun)

    def test_protocol_grid_warm_rerun_estimates_nothing(self, tmp_path):
        """The protocol grid's simulation batches are ledgered like any
        other chunk: a warm rerun re-executes no simulation."""
        grid = get_grid("protocol")
        only = {"adversary_fraction": (0.2,), "activity": (0.5,), "delta": (2,)}
        cold = run_grid(grid, trials=8, cache=ResultCache(tmp_path), only=only)
        assert len(cold) == 2
        assert all(
            not row["cached"] and row["sampled_trials"] == 8 for row in cold
        )
        warm_cache = ResultCache(tmp_path)
        warm = run_grid(grid, trials=8, cache=warm_cache, only=only)
        assert all(row["cached"] and not row["sampled_trials"] for row in warm)
        assert warm_cache.chunk_stores == 0
        ledger_columns = ("cached", "reused_trials", "sampled_trials")
        assert [
            {k: v for k, v in row.items() if k not in ledger_columns}
            for row in warm
        ] == [
            {k: v for k, v in row.items() if k not in ledger_columns}
            for row in cold
        ]


class TestAdaptiveGrid:
    """Per-point precision targets: run_grid through run_until."""

    GRID = SweepGrid(
        name="t-adaptive",
        base="iid-settlement",
        axes=(("depth", (5, 40)),),  # easy cell, rare cell
        trials=50_000,
        seed=60,
        chunk_size=512,
    )

    def test_rare_cells_get_more_trials(self):
        rows = run_grid(self.GRID, target_se=0.01)
        easy, rare = rows
        assert easy["value"] > rare["value"]
        assert rare["trials"] >= easy["trials"]
        assert all(row["standard_error"] <= 0.01 for row in rows)
        assert all(row["trials"] <= 50_000 for row in rows)

    def test_adaptive_identical_across_workers(self):
        serial = run_grid(self.GRID, target_se=0.01)
        with ProcessBackend(2) as pool:
            parallel = run_grid(self.GRID, target_se=0.01, backend=pool)
        assert parallel == serial

    def test_grid_declared_targets_are_defaults(self):
        declared = dataclasses.replace(
            self.GRID, name="t-adaptive-declared", target_se=0.01
        )
        assert run_grid(declared) == run_grid(self.GRID, target_se=0.01)

    def test_adaptive_rows_match_run_until(self):
        rows = run_grid(self.GRID, target_se=0.01)
        for row, point in zip(rows, self.GRID.points()):
            direct = ExperimentRunner(
                point.scenario, chunk_size=512
            ).run_until(point.seed, target_se=0.01, max_trials=50_000)
            assert row["value"] == direct.value
            assert row["trials"] == direct.trials

    def test_warm_ledger_serves_adaptive_rerun(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = run_grid(self.GRID, target_se=0.01, cache=cache)
        warm = run_grid(self.GRID, target_se=0.01, cache=cache)
        assert [row["value"] for row in warm] == [
            row["value"] for row in cold
        ]
        assert all(row["cached"] for row in warm)
        assert all(row["sampled_trials"] == 0 for row in warm)

    def test_precision_field_validation(self):
        with pytest.raises(ValueError, match="target_se"):
            dataclasses.replace(self.GRID, target_se=0.0)
        with pytest.raises(ValueError, match="rel_se"):
            dataclasses.replace(self.GRID, rel_se=-1.0)
        with pytest.raises(ValueError, match="max_trials"):
            dataclasses.replace(self.GRID, max_trials=0)

    def test_cli_adaptive_flags(self, capsys, tmp_path):
        code = sweep_cli.main(
            [
                "stake",
                "--target-se",
                "0.01",
                "--max-trials",
                "8192",
                "--cache-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "reused" in out  # the ledger-reuse column
        assert "ledger:" in out  # chunk-level counters in the footer
        assert "trials realized" in out

    def test_cli_rejects_bad_precision_flags(self, capsys):
        assert sweep_cli.main(["stake", "--target-se", "0"]) == 2
        assert "--target-se" in capsys.readouterr().err
        assert sweep_cli.main(["stake", "--rel-se", "-1"]) == 2
        assert "--rel-se" in capsys.readouterr().err
        assert sweep_cli.main(
            ["stake", "--target-se", "0.01", "--max-trials", "0"]
        ) == 2
        assert "--max-trials" in capsys.readouterr().err
        # --max-trials without any adaptive target is a no-op: reject it.
        assert sweep_cli.main(["stake", "--max-trials", "5000"]) == 2
        assert "only caps adaptive runs" in capsys.readouterr().err


class TestLedgerReuseRows:
    """run_grid rows expose the chunk-ledger split of their trials."""

    GRID = SweepGrid(
        name="t-ledger-rows",
        base="iid-settlement",
        axes=(("depth", (8, 12)),),
        trials=2_048,
        seed=70,
        chunk_size=512,
    )

    def test_trials_bump_reuses_old_chunks(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = run_grid(self.GRID, cache=cache)
        assert all(row["reused_trials"] == 0 for row in cold)
        assert all(row["sampled_trials"] == 2_048 for row in cold)
        bumped = run_grid(self.GRID, trials=4_096, cache=cache)
        assert all(row["reused_trials"] == 2_048 for row in bumped)
        assert all(row["sampled_trials"] == 2_048 for row in bumped)
        assert all(not row["cached"] for row in bumped)
        # The bumped rows are bit-identical to a cold 4096-trial run.
        assert [row["value"] for row in bumped] == [
            row["value"] for row in run_grid(self.GRID, trials=4_096)
        ]


class TestSeedAndOnly:
    """The sweep-CLI debugging satellites: --seed and --only."""

    GRID = SweepGrid(
        name="t-filter",
        base="iid-settlement",
        axes=(("alpha", (0.1, 0.2)), ("depth", (8, 12))),
        trials=1_000,
        seed=400,
        chunk_size=256,
    )

    def test_select_points_keeps_full_grid_seeds(self):
        points = self.GRID.points()
        selected = select_points(self.GRID, points, {"depth": (12,)})
        assert [p.params for p in selected] == [
            {"alpha": 0.1, "depth": 12},
            {"alpha": 0.2, "depth": 12},
        ]
        assert [p.seed for p in selected] == [401, 403]  # not 400, 401

    def test_select_points_rejects_unknown_axis(self):
        points = self.GRID.points()
        with pytest.raises(ValueError, match="unknown axis"):
            select_points(self.GRID, points, {"gamma": (1,)})
        with pytest.raises(ValueError, match="matches no grid point"):
            select_points(self.GRID, points, {"depth": (99,)})

    def test_run_grid_only_rows_match_full_run(self):
        full = run_grid(self.GRID)
        filtered = run_grid(self.GRID, only={"depth": (12,)})
        assert filtered == [row for row in full if row["depth"] == 12]

    def test_run_grid_only_hits_full_run_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_grid(self.GRID, cache=cache)
        filtered = run_grid(self.GRID, cache=cache, only={"alpha": (0.2,)})
        assert all(row["cached"] for row in filtered)

    def test_run_grid_seed_override_reseeds_points(self):
        rows = run_grid(self.GRID, seed=900)
        assert [row["seed"] for row in rows] == [900, 901, 902, 903]
        assert run_grid(self.GRID, seed=900) == rows

    def test_cli_only_and_seed(self, capsys, tmp_path):
        code = sweep_cli.main(
            [
                "table1",
                "--trials",
                "300",
                "--seed",
                "77",
                "--only",
                "alpha=0.1",
                "--only",
                "depth=10,20",
                "--cache-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "6 points" in out  # 1 alpha x 3 fractions x 2 depths
        # 300 trials are one ragged chunk per point.
        assert "ledger: 0 chunk hits / 6 chunk misses / 6 chunk stores" in out

        # Same filtered rerun: all six points served from cache.
        sweep_cli.main(
            [
                "table1",
                "--trials",
                "300",
                "--seed",
                "77",
                "--only",
                "alpha=0.1",
                "--only",
                "depth=10,20",
                "--cache-dir",
                str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert "6 from cache" in out
        assert "ledger: 6 chunk hits / 0 chunk misses / 0 chunk stores" in out

    def test_cli_rejects_bad_only(self, capsys):
        assert sweep_cli.main(["table1", "--only", "nope=1"]) == 2
        assert "unknown axis" in capsys.readouterr().err
        assert sweep_cli.main(["table1", "--only", "alpha=0.77"]) == 2
        assert "no value" in capsys.readouterr().err
        assert sweep_cli.main(["table1", "--only", "alpha"]) == 2
        assert "axis=v1,v2" in capsys.readouterr().err

    def test_parse_only_matches_string_axes(self):
        grid = get_grid("protocol")
        only = sweep_cli.parse_only(grid, ["tie_break=adversarial"])
        assert only == {"tie_break": ["adversarial"]}


class TestBuiltinGrids:
    def test_registry_contents(self):
        assert {"table1", "stake", "delta", "bounds-vs-exact"} <= set(
            grid_names()
        )

    def test_builtin_grids_expand(self):
        for name in grid_names():
            grid = get_grid(name)
            points = grid.points()
            assert len(points) == grid.size()

    def test_unknown_grid(self):
        with pytest.raises(KeyError, match="unknown grid"):
            get_grid("no-such-grid")


class TestCli:
    def test_list(self, capsys):
        assert sweep_cli.main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "delta" in out

    def test_run_writes_table_and_json(self, capsys, tmp_path):
        out_path = tmp_path / "rows.json"
        code = sweep_cli.main(
            [
                "stake",
                "--trials",
                "500",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--out",
                str(out_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "alpha" in out and "value" in out
        assert "3 points" in out
        payload = json.loads(out_path.read_text())
        assert payload["grid"] == "stake"
        assert len(payload["rows"]) == 3

        # Warm rerun: every point served from cache.
        assert (
            sweep_cli.main(
                [
                    "stake",
                    "--trials",
                    "500",
                    "--cache-dir",
                    str(tmp_path / "cache"),
                ]
            )
            == 0
        )
        assert "3 from cache" in capsys.readouterr().out

    def test_unknown_grid_exit_code(self, capsys):
        assert sweep_cli.main(["no-such-grid"]) == 2
        assert "unknown grid" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--trials", "0"], "error: --trials must be positive\n"),
            (["--seed", "-1"], "error: --seed must be non-negative\n"),
        ],
    )
    def test_bad_run_knobs_exit_2(self, capsys, tmp_path, flags, message):
        cache_dir = tmp_path / "cache"
        assert sweep_cli.main(
            ["stake", "--cache-dir", str(cache_dir), *flags]
        ) == 2
        captured = capsys.readouterr()
        assert captured.err == message
        assert captured.out == ""
        assert not cache_dir.exists()

    @pytest.mark.parametrize("flag", ["--out", "--trace"])
    def test_unwritable_output_path_exit_2_before_work(
        self, capsys, tmp_path, flag
    ):
        (tmp_path / "afile").write_text("")
        rows = tmp_path / "rows.json"
        rows.write_text("kept\n")
        flags = [flag, str(tmp_path / "afile" / "x")]
        if flag == "--trace":
            flags += ["--out", str(rows)]
        cache_dir = tmp_path / "cache"
        argv = ["stake", "--trials", "100", "--cache-dir", str(cache_dir)]
        if flag == "--out":
            assert sweep_cli.main([*argv, *flags]) == 2
        else:
            # A shared run flag: rejected the argparse way, as SystemExit.
            with pytest.raises(SystemExit) as exit_info:
                sweep_cli.main([*argv, *flags])
            assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {flag}: {tmp_path / 'afile'} is not a directory\n"
        )
        assert captured.out == ""
        assert not cache_dir.exists()
        assert rows.read_text() == "kept\n"

    def test_cache_dir_then_env_then_uncached(
        self, capsys, tmp_path, monkeypatch
    ):
        """``--cache-dir`` wins over ``$REPRO_SWEEP_CACHE``, which is used
        when the flag is absent; set empty, it runs uncached."""
        env_dir, flag_dir = tmp_path / "env", tmp_path / "flag"
        monkeypatch.setenv("REPRO_SWEEP_CACHE", str(env_dir))
        argv = ["stake", "--trials", "64"]
        assert sweep_cli.main([*argv, "--cache-dir", str(flag_dir)]) == 0
        assert flag_dir.is_dir() and not env_dir.exists()
        assert sweep_cli.main(argv) == 0
        assert env_dir.is_dir()
        assert "ledger:" in capsys.readouterr().out
        monkeypatch.setenv("REPRO_SWEEP_CACHE", "")
        assert sweep_cli.main(argv) == 0
        assert "ledger:" not in capsys.readouterr().out


class TestEstimateBoundary:
    """The satellite fix: estimate_from_hits at p ∈ {0, 1} and n = 0."""

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError, match="trials must be positive"):
            estimate_from_hits(0, 0)

    def test_hits_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            estimate_from_hits(5, 4)
        with pytest.raises(ValueError, match="outside"):
            estimate_from_hits(-1, 4)

    @pytest.mark.parametrize("trials", [100, 10_000])
    def test_boundary_standard_error_is_order_one_over_n(self, trials):
        for hits in (0, trials):
            estimate = estimate_from_hits(hits, trials)
            smoothed = (hits + 1.0) / (trials + 2.0)
            expected = math.sqrt(smoothed * (1.0 - smoothed) / trials)
            assert estimate.standard_error == pytest.approx(expected)
            assert estimate.standard_error > 1.0 / (2.0 * trials)

    def test_boundary_within_no_false_positive(self):
        """An all-miss estimate must not claim to resolve a target it
        cannot distinguish from zero — but must also not accept targets
        far above its resolution (the old 1e-12 floor accepted nothing;
        a 0.0 standard error would accept only the point itself)."""
        estimate = estimate_from_hits(0, 10_000)
        assert estimate.within(1e-5)  # below resolution: statistically same
        assert not estimate.within(0.01)  # resolvable difference: rejected

    def test_interior_unchanged(self):
        estimate = estimate_from_hits(250, 1_000)
        assert estimate.value == 0.25
        assert estimate.standard_error == pytest.approx(
            math.sqrt(0.25 * 0.75 / 1_000)
        )

    @given(
        st.integers(1, 10**12).flatmap(
            lambda trials: st.tuples(st.integers(0, trials), st.just(trials))
        )
    )
    def test_every_count_is_a_probability_with_positive_error(self, count):
        """Every Estimate of the engine comes from a hit count, so no
        estimate is outside [0, 1] or claims to be exact."""
        hits, trials = count
        estimate = estimate_from_hits(hits, trials)
        assert 0.0 <= estimate.value <= 1.0
        assert estimate.standard_error > 0.0
        assert estimate.within(estimate.value, sigmas=0.0)
