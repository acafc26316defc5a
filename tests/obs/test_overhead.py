"""The telemetry contract: instrumentation never changes a result.

Metrics and tracing must consume zero RNG, never enter cache keys or
ledger schemas, and leave every estimate bit-identical to an
uninstrumented run — on all three backends.  These tests run the same
workload with telemetry off and fully on (metrics + tracing) and
require exact equality: values, standard errors, realized trial counts,
and the on-disk cache bytes.
"""

import pytest

from repro.engine import (
    DistributedBackend,
    ExperimentRunner,
    ProcessBackend,
    SerialBackend,
    get_grid,
    get_scenario,
    run_grid,
)
from repro.engine.cache import ResultCache
from repro.engine.parallel import ProcessBackend, SerialBackend
from repro.obs import metrics
from repro.obs.trace import tracing_to
from repro.worker import serve

SCENARIO = get_scenario("iid-settlement", depth=15)
TRIALS = 1_500
CHUNK = 256
SEED = 2020


def _instrumented(tmp_path, run):
    """Run ``run()`` with metrics and tracing both enabled."""
    with metrics.enabled_registry():
        with tracing_to(tmp_path / "overhead-trace.jsonl"):
            return run()


@pytest.fixture()
def backends():
    """One factory per backend name; distributed uses live workers."""
    servers = [serve(), serve()]

    def distributed():
        return DistributedBackend(
            [server.address for server in servers], timeout=30.0
        )

    yield {
        "serial": SerialBackend,
        "process": lambda: ProcessBackend(2),
        "distributed": distributed,
    }
    for server in servers:
        server.shutdown()
        server.server_close()


@pytest.mark.parametrize("name", ["serial", "process", "distributed"])
class TestBitIdentity:
    def test_run_is_bit_identical(self, name, backends, tmp_path):
        with backends[name]() as backend:
            baseline = ExperimentRunner(SCENARIO, chunk_size=CHUNK).run(
                TRIALS, seed=SEED, backend=backend
            )
            traced = _instrumented(
                tmp_path,
                lambda: ExperimentRunner(SCENARIO, chunk_size=CHUNK).run(
                    TRIALS, seed=SEED, backend=backend
                ),
            )
        assert traced.value == baseline.value
        assert traced.standard_error == baseline.standard_error
        assert traced.trials == baseline.trials

    def test_run_until_is_bit_identical(self, name, backends, tmp_path):
        def adaptive(backend):
            runner = ExperimentRunner(SCENARIO, chunk_size=CHUNK)
            estimate = runner.run_until(
                seed=SEED,
                target_se=0.02,
                max_trials=4_000,
                backend=backend,
            )
            return estimate, runner.last_report

        with backends[name]() as backend:
            baseline, base_report = adaptive(backend)
            (traced, traced_report) = _instrumented(
                tmp_path, lambda: adaptive(backend)
            )
        assert traced.value == baseline.value
        assert traced.standard_error == baseline.standard_error
        # The adaptive wave schedule (and so the realized spend) must
        # not shift by a single trial under instrumentation.
        assert traced.trials == baseline.trials
        assert traced_report.sampled_trials == base_report.sampled_trials


class TestGridAndCache:
    def test_run_grid_rows_are_identical(self, tmp_path):
        grid = get_grid("delta")
        baseline = run_grid(grid, trials=600)
        traced = _instrumented(
            tmp_path, lambda: run_grid(grid, trials=600)
        )
        assert traced == baseline

    def test_cache_bytes_are_identical(self, tmp_path):
        """Chunk ledgers must not know whether the run that wrote them
        was instrumented."""

        def populate(directory):
            cache = ResultCache(directory)
            runner = ExperimentRunner(
                SCENARIO, chunk_size=CHUNK, cache=cache
            )
            runner.run(TRIALS, seed=SEED)
            runner.run_until(
                seed=SEED + 1,
                target_se=0.02,
                max_trials=4_000,
            )

        plain_dir = tmp_path / "plain"
        traced_dir = tmp_path / "traced"
        populate(plain_dir)
        _instrumented(tmp_path, lambda: populate(traced_dir))

        plain = {p.name: p.read_bytes() for p in plain_dir.iterdir()}
        traced = {p.name: p.read_bytes() for p in traced_dir.iterdir()}
        assert plain and plain == traced

    def test_warm_cache_replay_identical_under_instrumentation(
        self, tmp_path
    ):
        cache = ResultCache(tmp_path / "cache")
        runner = ExperimentRunner(SCENARIO, chunk_size=CHUNK, cache=cache)
        cold = runner.run(TRIALS, seed=SEED)
        warm = _instrumented(
            tmp_path, lambda: runner.run(TRIALS, seed=SEED)
        )
        assert warm.value == cold.value
        assert runner.last_report.reused_trials == TRIALS


class TestRecordedTelemetry:
    """The flip side: when enabled, the instrumentation does report."""

    def test_run_populates_runner_metrics(self, tmp_path):
        with metrics.enabled_registry() as registry:
            ExperimentRunner(SCENARIO, chunk_size=CHUNK).run(
                TRIALS, seed=SEED
            )
        text = registry.render()
        assert 'repro_runner_trials_total{source="sampled"} 1500' in text
        assert 'repro_task_seconds_count{backend="serial"}' in text
        assert 'repro_runner_runs_total{cache="miss"} 1' in text

    @pytest.mark.parametrize("name", ["serial", "process"])
    def test_every_task_is_timed(self, name):
        """``repro_task_seconds`` times any task — an oracle DP cell as
        much as a chunk — on the backend that ran it."""
        backend = SerialBackend() if name == "serial" else ProcessBackend(2)
        with metrics.enabled_registry() as registry:
            with backend:
                futures = [backend.submit_task(divmod, n, 3) for n in range(3)]
                assert [f.result() for f in futures] == [(0, 0), (0, 1), (0, 2)]
        # Closing the pool joins the thread that runs the done-callbacks.
        text = registry.render()
        assert f'repro_task_seconds_count{{backend="{name}"}} 3' in text

    def test_cache_metrics_split_hits_and_misses(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        runner = ExperimentRunner(SCENARIO, chunk_size=CHUNK, cache=cache)
        with metrics.enabled_registry() as registry:
            runner.run(TRIALS, seed=SEED)
            runner.run(TRIALS, seed=SEED)
        text = registry.render()
        # 1,500 trials in 256-trial chunks: 5 full chunks + ragged 220.
        requests = "repro_cache_requests_total"
        assert f'{requests}{{kind="chunk",result="miss"}} 6' in text
        assert f'{requests}{{kind="chunk",result="hit"}} 6' in text
        assert 'repro_cache_stores_total{kind="chunk"} 6' in text
        assert 'kind="estimate"' not in text

    def test_traced_run_emits_runner_spans(self, tmp_path):
        from repro.obs.report import load_events

        path = tmp_path / "spans.jsonl"
        with tracing_to(path):
            ExperimentRunner(SCENARIO, chunk_size=CHUNK).run(
                TRIALS, seed=SEED
            )
        names = {event["name"] for event in load_events(str(path))}
        assert {"runner.run", "runner.chunk"} <= names

    def test_distributed_run_reports_rpc_and_worker_stats(self, tmp_path):
        servers = [serve()]
        try:
            with metrics.enabled_registry() as registry:
                with DistributedBackend(
                    [servers[0].address], timeout=30.0
                ) as backend:
                    ExperimentRunner(SCENARIO, chunk_size=CHUNK).run(
                        TRIALS, seed=SEED, backend=backend
                    )
                    stats = dict(backend.worker_stats)
        finally:
            for server in servers:
                server.shutdown()
                server.server_close()
        text = registry.render()
        assert 'repro_rpc_seconds_count{op="task"}' in text
        assert "repro_worker_uptime_seconds" in text
        (frame,) = stats.values()
        assert frame["worker"] == servers[0].worker_id
        assert frame["uptime"] >= 0
        assert frame["served"]["task"] >= 1
