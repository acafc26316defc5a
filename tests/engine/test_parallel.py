"""Determinism suite: the process backend is a pure wall-clock knob.

The engine's reproducibility contract says an integer-seeded run is a
pure function of ``(scenario, estimator, seed, trials, chunk_size)`` —
never of the execution backend.  These tests pin that down: serial and
process-pool runs must return *identical* ``Estimate`` objects across
1/2/4 workers, chunk partitions must tile exactly, a ``Generator`` seed
is refused on every backend (its stream cannot be replayed chunk by
chunk), and the ``--workers``/``--hosts`` flags of both command lines
pick the backend by one rule and are validated the same way.
"""

import argparse
import importlib
from concurrent.futures import Future

import numpy as np
import pytest

from repro.engine import (
    DistributedBackend,
    ExperimentRunner,
    ProcessBackend,
    ResultCache,
    SerialBackend,
    chunk_sizes,
    estimate_from_hits,
    get_scenario,
    run_chunk,
    run_scenario,
)
from repro.engine.sweeps import ESTIMATORS


class TestChunkPartition:
    def test_exact_tiling(self):
        assert chunk_sizes(10, 4) == [4, 4, 2]
        assert chunk_sizes(8, 4) == [4, 4]
        assert chunk_sizes(3, 5) == [3]

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            chunk_sizes(0, 4)
        with pytest.raises(ValueError):
            chunk_sizes(10, 0)

    def test_partition_sums_to_trials(self):
        for trials, chunk in [(1, 1), (4096, 4096), (10_001, 4096), (7, 3)]:
            assert sum(chunk_sizes(trials, chunk)) == trials


class TestBackendIndependence:
    """Serial and parallel backends: identical Estimates, bit for bit."""

    @pytest.fixture(scope="class")
    def serial(self):
        runner = ExperimentRunner(
            get_scenario("iid-settlement", depth=20), chunk_size=1024
        )
        return runner.run(10_000, seed=42)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_identical_across_worker_counts(self, serial, workers):
        runner = ExperimentRunner(
            get_scenario("iid-settlement", depth=20), chunk_size=1024
        )
        with ProcessBackend(workers) as pool:
            assert runner.run(10_000, seed=42, backend=pool) == serial

    def test_identical_on_reduced_scenario(self):
        scenario = get_scenario(
            "delta-synchronous", total_length=60, target_slot=10, depth=8
        )
        runner = ExperimentRunner(scenario, chunk_size=128)
        with ProcessBackend(2) as pool:
            parallel = runner.run(500, seed=9, backend=pool)
        assert runner.run(500, seed=9) == parallel

    def test_shared_backend_reuse(self):
        scenario = get_scenario("iid-settlement", depth=15)
        runner = ExperimentRunner(scenario, chunk_size=512)
        with ProcessBackend(2) as pool:
            first = runner.run(2_000, seed=5, backend=pool)
            second = runner.run(2_000, seed=6, backend=pool)
        assert first == runner.run(2_000, seed=5)
        assert second == runner.run(2_000, seed=6)
        assert first != second

    def test_pipelined_submit_matches_serial(self):
        """run_grid-style dispatch: submit every run's chunks before
        collecting any result — still bit-identical to serial."""
        scenario = get_scenario("iid-settlement", depth=15)
        runner = ExperimentRunner(scenario, chunk_size=256)
        with ProcessBackend(2) as pool:
            pending = [
                runner.submit(1_000, seed, pool) for seed in (31, 32, 33)
            ]
            gathered = [p.result() for p in pending]
            assert not any(p.from_cache for p in pending)
        assert gathered == [runner.run(1_000, seed) for seed in (31, 32, 33)]

    def test_run_scenario_backend_keyword(self):
        serial = run_scenario("iid-settlement", 3_000, seed=8, depth=12)
        with ProcessBackend(2) as pool:
            parallel = run_scenario(
                "iid-settlement", 3_000, seed=8, depth=12, backend=pool
            )
        assert serial == parallel


class TestSeedTree:
    def test_chunk_reproducible_from_its_child(self):
        """A chunk is a pure function of its spawned child seed."""
        scenario = get_scenario("iid-settlement", depth=20)
        estimator = ExperimentRunner(scenario).estimator
        child = np.random.SeedSequence(7).spawn(1)[0]
        assert run_chunk(scenario, estimator, 2048, child) == run_chunk(
            scenario, estimator, 2048, child
        )

    def test_chunk_result_is_position_independent(self):
        """A chunk's hit count depends on its child seed, not its order."""
        scenario = get_scenario("iid-settlement", depth=20)
        children = np.random.SeedSequence(21).spawn(3)
        forward = [
            run_chunk(scenario, ExperimentRunner(scenario).estimator, 512, c)
            for c in children
        ]
        backward = [
            run_chunk(scenario, ExperimentRunner(scenario).estimator, 512, c)
            for c in reversed(children)
        ]
        assert forward == backward[::-1]


class FixedVector:
    """An estimator returning ``make(trials)`` whatever the batch."""

    def __init__(self, make):
        self.make = make

    def __call__(self, scenario, batch):
        return self.make(batch.symbols.shape[0])


class CannedReplies(SerialBackend):
    """A backend whose every task reply is ``reply``, as a broken or
    foreign worker might send it."""

    def __init__(self, reply):
        self.reply = reply

    def submit_task(self, function, /, *args):
        future = Future()
        future.set_result(self.reply)
        return future


class TestGuards:
    def test_generator_continuation_is_serial_only(self):
        """A Generator seed cannot be replayed chunk by chunk: rejected
        on every backend, with run_until's wording."""
        runner = ExperimentRunner(get_scenario("iid-settlement", depth=10))
        with ProcessBackend(2) as pool:
            for backend in (None, pool):
                with pytest.raises(ValueError, match="integer seed"):
                    runner.run(100, np.random.default_rng(1), backend)

    def test_estimator_shape_validated(self):
        runner = ExperimentRunner(
            get_scenario("iid-settlement", depth=10),
            estimator=lambda scenario, batch: np.array([True]),
        )
        with pytest.raises(ValueError, match="one bool per trial"):
            runner.run(100, seed=3)

    @pytest.mark.parametrize(
        "hits",
        [
            lambda n: np.ones(n),  # float weights, even 0/1 ones
            lambda n: np.ones(n, dtype=np.int64),
            lambda n: np.ones((n, 2), dtype=bool),  # not one per trial
        ],
        ids=["float", "int", "shape"],
    )
    def test_run_chunk_takes_only_one_bool_per_trial(self, hits):
        scenario = get_scenario("iid-settlement", depth=10)
        child = np.random.SeedSequence(3, spawn_key=(0,))
        with pytest.raises(ValueError, match="one bool per trial"):
            run_chunk(scenario, FixedVector(hits), 64, child)

    @pytest.mark.parametrize("reply", [-1, True, "51", 2.0])
    def test_runner_rejects_a_reply_that_is_not_a_hit_count(self, reply):
        runner = ExperimentRunner(
            get_scenario("iid-settlement", depth=10), chunk_size=64
        )
        with pytest.raises(ValueError, match="not a hit count"):
            runner.run(128, seed=3, backend=CannedReplies(reply))

    def test_worker_count_validated(self):
        with pytest.raises(ValueError, match="workers"):
            ProcessBackend(0)


class TestBackendProtocolCompliance:
    """Every backend serves the same submit_task surface."""

    @pytest.fixture(params=["serial", "process", "distributed"])
    def backend(self, request):
        from repro.engine import Backend, DistributedBackend

        if request.param == "serial":
            from repro.engine import SerialBackend

            built, server = SerialBackend(), None
        elif request.param == "process":
            built, server = ProcessBackend(2), None
        else:
            from repro.worker import serve

            server = serve()
            built = DistributedBackend([server.address], timeout=30.0)
        assert isinstance(built, Backend)
        yield built
        built.close()
        if server is not None:
            server.shutdown()
            server.server_close()

    def test_submit_task_positional_and_ordered(self, backend):
        futures = [backend.submit_task(divmod, n, 3) for n in range(5)]
        assert [f.result() for f in futures] == [divmod(n, 3) for n in range(5)]

    def test_submitted_run_chunk_matches_run_chunk(self, backend):
        scenario = get_scenario("iid-settlement", depth=10)
        estimator = ExperimentRunner(scenario).estimator
        children = np.random.SeedSequence(5).spawn(3)
        sizes = [256, 256, 128]
        futures = [
            backend.submit_task(run_chunk, scenario, estimator, size, child)
            for size, child in zip(sizes, children)
        ]
        expected = [
            run_chunk(scenario, estimator, size, child)
            for size, child in zip(sizes, children)
        ]
        # Every backend, the distributed wire included, replies with the
        # chunk's hit count as a plain int.
        results = [future.result() for future in futures]
        assert results == expected
        assert all(type(hits) is int for hits in results)

    def test_ledger_written_through_the_backend_replays_bit_identically(
        self, backend, tmp_path
    ):
        scenario = get_scenario("iid-settlement", depth=15)
        reference = ExperimentRunner(scenario, chunk_size=512).run(
            2_048, seed=12
        )
        cache = ResultCache(tmp_path)
        runner = ExperimentRunner(scenario, chunk_size=512, cache=cache)
        assert runner.run(2_048, seed=12, backend=backend) == reference
        warm = ExperimentRunner(
            scenario, chunk_size=512, cache=ResultCache(tmp_path)
        )
        assert warm.run(2_048, seed=12) == reference
        assert warm.last_report.from_cache

    def test_window_estimators_validate_bounds(self):
        from repro.engine import (
            NoConsecutiveCatalanInWindow,
            NoUniqueCatalanInWindow,
        )

        with pytest.raises(ValueError, match="window_start"):
            NoUniqueCatalanInWindow(0, 10)
        with pytest.raises(ValueError, match="window_length"):
            NoConsecutiveCatalanInWindow(1, 0)


#: One small workload per registered estimator name:
#: ``(scenario, overrides, chunk_size, trials)``, each ending on a
#: ragged chunk.
ESTIMATOR_WORKLOADS = {
    "settlement-violation": ("iid-settlement", {"depth": 15}, 256, 1_000),
    "delta-settlement-violation": (
        "delta-synchronous",
        {"total_length": 60, "target_slot": 10, "depth": 8},
        128,
        500,
    ),
    "protocol-settlement-violation": ("protocol-private-chain", {}, 4, 10),
    "protocol-cp-violation": ("protocol-private-chain", {}, 4, 10),
    "protocol-deep-reorg": ("protocol-private-chain", {}, 4, 10),
}


class TestEveryEstimatorHitCounts:
    """Every estimator a grid can name yields the same per-chunk hit
    counts — plain ints — on every backend and from a warm ledger."""

    SEED = 5

    @pytest.fixture(scope="class")
    def pool(self):
        with ProcessBackend(2) as pool:
            yield pool

    @pytest.fixture(scope="class")
    def remote(self):
        from repro.worker import serve

        server = serve()
        with DistributedBackend([server.address], timeout=30.0) as backend:
            yield backend
        server.shutdown()
        server.server_close()

    @staticmethod
    def workload(name):
        base, overrides, chunk, trials = ESTIMATOR_WORKLOADS[name]
        module, function = ESTIMATORS[name]
        estimator = getattr(importlib.import_module(module), function)
        return get_scenario(base, **overrides), estimator, chunk, trials

    def serial_hits(self, scenario, estimator, chunk, trials):
        sizes = chunk_sizes(trials, chunk)
        children = [
            np.random.SeedSequence(self.SEED, spawn_key=(i,))
            for i in range(len(sizes))
        ]
        hits = [
            run_chunk(scenario, estimator, size, child)
            for size, child in zip(sizes, children)
        ]
        assert all(type(count) is int for count in hits)
        return sizes, children, hits

    def test_workloads_cover_every_estimator(self):
        assert sorted(ESTIMATOR_WORKLOADS) == sorted(ESTIMATORS)

    @pytest.mark.parametrize("name", sorted(ESTIMATOR_WORKLOADS))
    @pytest.mark.parametrize("source", ["process", "distributed"])
    def test_backend_matches_serial(self, request, name, source):
        scenario, estimator, chunk, trials = self.workload(name)
        sizes, children, hits = self.serial_hits(
            scenario, estimator, chunk, trials
        )
        backend = request.getfixturevalue(
            "pool" if source == "process" else "remote"
        )
        futures = [
            backend.submit_task(run_chunk, scenario, estimator, size, child)
            for size, child in zip(sizes, children)
        ]
        assert [future.result() for future in futures] == hits

    @pytest.mark.parametrize("name", sorted(ESTIMATOR_WORKLOADS))
    def test_warm_ledger_matches_serial(self, tmp_path, name):
        scenario, estimator, chunk, trials = self.workload(name)
        sizes, _, hits = self.serial_hits(scenario, estimator, chunk, trials)
        cold = ExperimentRunner(
            scenario, estimator, chunk, cache=ResultCache(tmp_path)
        ).run(trials, seed=self.SEED)
        warm_cache = ResultCache(tmp_path)
        warm = ExperimentRunner(scenario, estimator, chunk, cache=warm_cache)
        assert warm.run(trials, seed=self.SEED) == cold
        assert cold == estimate_from_hits(sum(hits), trials)
        assert warm_cache.chunk_stores == 0
        key = warm_cache.ledger_key(scenario, estimator, self.SEED, chunk)
        assert warm_cache.get_chunks(key, dict(enumerate(sizes))) == dict(
            enumerate(hits)
        )


def _sweep_cli(flags, tmp_path):
    from repro.sweep import main

    return main(["stake", "--trials", "64", *flags])


def _oracle_build_cli(flags, tmp_path):
    from repro.oracle.cli import main

    out = tmp_path / "artifact"
    argv = ["build", "--out", str(out), "--preset", "tiny", "--mc-trials", "0"]
    return main([*argv, *flags])


class TestBackendFlags:
    """Both command lines read ``--workers``/``--hosts`` through
    ``open_backend``: ``--hosts`` picks the distributed backend,
    ``--workers N > 1`` a pool of N, anything else the serial one.  A
    flag the rule cannot honour exits 2 with one ``error:`` line,
    before anything runs."""

    @pytest.mark.parametrize(
        "flags,kind,width",
        [
            ([], SerialBackend, 1),
            (["--workers", "3"], ProcessBackend, 3),
            (["--hosts", "127.0.0.1:9,:10"], DistributedBackend, 2),
            (
                ["--workers", "1", "--hosts", "127.0.0.1:9"],
                DistributedBackend,
                1,
            ),
        ],
        ids=["default", "workers-3", "hosts", "hosts-workers-1"],
    )
    def test_flags_pick_the_backend(self, flags, kind, width):
        from repro.engine.parallel import add_run_flags, open_backend

        parser = argparse.ArgumentParser()
        add_run_flags(parser)
        with open_backend(parser.parse_args(flags)) as backend:
            assert type(backend) is kind
            assert backend.workers == width

    @pytest.mark.parametrize(
        "cli", [_sweep_cli, _oracle_build_cli], ids=["sweep", "oracle-build"]
    )
    @pytest.mark.parametrize(
        "flags,error",
        [
            (["--workers", "0"], "--workers must be positive, got 0"),
            (
                ["--workers", "-4", "--hosts", "1.2.3.4:9"],
                "--workers must be positive, got -4",
            ),
            (
                ["--workers", "2", "--hosts", "127.0.0.1:9"],
                "--workers > 1 and --hosts each pick a backend; pass one",
            ),
            (
                ["--hosts", "127.0.0.1"],
                "host entry '127.0.0.1' is not of the form host:port",
            ),
            (
                ["--trace", "/dev/null/t.jsonl"],
                "--trace: /dev/null is not a directory",
            ),
            (
                ["--cache-dir", "/dev/null/cache"],
                "--cache-dir: /dev/null is not a directory",
            ),
        ],
        ids=[
            "workers-0",
            "workers-negative-hosts",
            "workers-hosts",
            "bad-host",
            "trace-path",
            "cache-path",
        ],
    )
    def test_invalid_flags_exit_2(self, cli, flags, error, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli(flags, tmp_path)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: {error}"]
        assert captured.out == ""
        assert not (tmp_path / "artifact").exists()

    @pytest.mark.parametrize(
        "cli", [_sweep_cli, _oracle_build_cli], ids=["sweep", "oracle-build"]
    )
    def test_trace_and_metrics_footers_close_a_run(
        self, cli, tmp_path, capsys, monkeypatch
    ):
        """A completed run ends with the trace footer, then the metrics
        exposition, on either command line."""
        monkeypatch.delenv("REPRO_SWEEP_CACHE", raising=False)
        trace = tmp_path / "run.jsonl"
        assert cli(["--trace", str(trace), "--metrics"], tmp_path) == 0
        footer = (
            f"trace written to {trace} "
            f"(summarize: python -m repro.obs.report {trace})\n"
            "-- metrics --\n"
        )
        _, found, exposition = capsys.readouterr().out.partition(footer)
        assert found
        assert 'repro_task_seconds_count{backend="serial"}' in exposition
        assert trace.is_file()
