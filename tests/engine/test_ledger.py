"""The chunk ledger and adaptive stopping: the PR 5 contract.

Pins the two halves of the revised reproducibility contract:

* **Prefix property** — extending ``trials`` over a warm ledger reuses
  every previously computed chunk bit-identically and samples only the
  chunks the ledger lacks (a ragged remainder is keyed by its size, so
  only a run ending on the same remainder reuses it); a ``chunk_size``
  change is a different chunk stream and reuses nothing.
* **Adaptive determinism** — ``run_until`` meets its standard-error
  target with a realized trial count that is a deterministic function
  of ``(seed, stopping rule)``: bit-identical across 1/2/4 workers,
  ledger-cacheable, and capped by ``max_trials``.
"""

import numpy as np
import pytest

import repro.engine.runner as runner_module
from repro.engine import (
    ExperimentRunner,
    ProcessBackend,
    ResultCache,
    get_scenario,
    run_chunk,
)


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


def make_runner(cache=None, chunk_size=512, **overrides):
    overrides.setdefault("depth", 15)
    scenario = get_scenario("iid-settlement", **overrides)
    return ExperimentRunner(scenario, chunk_size=chunk_size, cache=cache)


@pytest.fixture
def counting_run_chunk(monkeypatch):
    """Count (and record the sizes of) every chunk actually sampled.

    Patched where the runner resolves it: every chunk is submitted as
    the task ``run_chunk``.
    """
    calls = []

    def counted(scenario, estimator, size, child):
        calls.append(size)
        return run_chunk(scenario, estimator, size, child)

    monkeypatch.setattr(runner_module, "run_chunk", counted)
    return calls


class TestPrefixProperty:
    def test_extension_is_bit_identical_to_fresh_run(self, cache):
        """10k -> 50k over a warm ledger == an uncached 50k run."""
        warm = make_runner(cache)
        warm.run(10_000, seed=3)
        extended = warm.run(50_000, seed=3)
        fresh = make_runner().run(50_000, seed=3)
        assert extended == fresh

    def test_extension_samples_only_new_chunks(self, cache, counting_run_chunk):
        runner = make_runner(cache)  # chunk_size 512
        runner.run(2_048, seed=11)  # 4 full chunks, no remainder
        del counting_run_chunk[:]
        runner.run(4_096, seed=11)  # 8 full chunks
        assert counting_run_chunk == [512] * 4  # chunks 4..7 only
        report = runner.last_report
        assert report.reused_trials == 2_048
        assert report.sampled_trials == 2_048
        assert report.reused_chunks == 4 and report.sampled_chunks == 4

    def test_ragged_remainder_is_keyed_by_its_size(
        self, cache, counting_run_chunk
    ):
        """The ragged remainder is ledgered under ``(index, size)``: an
        identical rerun reuses it, a longer run does not."""
        runner = make_runner(cache)
        first = runner.run(1_000, seed=21)  # 1 full chunk + ragged 488
        del counting_run_chunk[:]
        assert runner.run(1_000, seed=21) == first
        assert counting_run_chunk == []
        extended = runner.run(1_500, seed=21)  # 2 full + ragged 476
        # chunk 0 reused; chunk 1 and the new remainder sampled — the
        # old 488-trial remainder is not reusable (different phase
        # widths consume the child generator differently).
        assert counting_run_chunk == [512, 476]
        assert extended == make_runner().run(1_500, seed=21)

    def test_chunk_size_change_reuses_nothing(self, cache, counting_run_chunk):
        make_runner(cache, chunk_size=512).run(2_048, seed=5)
        del counting_run_chunk[:]
        make_runner(cache, chunk_size=256).run(2_048, seed=5)
        assert counting_run_chunk == [256] * 8  # a different chunk stream

    def test_ledger_survives_process_boundary(self, cache, counting_run_chunk):
        """Ledgers are plain JSON: a fresh ResultCache over the same
        directory serves the same chunks to a fresh runner."""
        first = make_runner(cache)
        first.run(2_048, seed=9)
        reopened = ResultCache(cache.directory)
        runner = ExperimentRunner(
            first.scenario, chunk_size=512, cache=reopened
        )
        del counting_run_chunk[:]
        extended = runner.run(4_096, seed=9)
        assert counting_run_chunk == [512] * 4
        assert reopened.chunk_hits == 4 and reopened.chunk_stores == 4
        assert extended == make_runner().run(4_096, seed=9)

    def test_corrupt_record_is_a_chunk_miss_and_heals(
        self, cache, counting_run_chunk
    ):
        runner = make_runner(cache)
        first = runner.run(2_048, seed=13)
        (ledger_file,) = cache.directory.glob("*.ledger.jsonl")
        header, _chunk_0, *rest = ledger_file.read_bytes().splitlines()
        ledger_file.write_bytes(b"\n".join([header, b'[0, "many"]', *rest]))
        del counting_run_chunk[:]
        extended = runner.run(4_096, seed=13)
        assert counting_run_chunk == [512] * 5  # chunk 0 and chunks 4..7
        assert extended == make_runner().run(4_096, seed=13)
        del counting_run_chunk[:]
        assert runner.run(2_048, seed=13) == first
        assert counting_run_chunk == []  # the append healed chunk 0

    def test_different_seed_different_ledger(self, cache, counting_run_chunk):
        runner = make_runner(cache)
        runner.run(2_048, seed=1)
        del counting_run_chunk[:]
        runner.run(2_048, seed=2)
        assert counting_run_chunk == [512] * 4


class TestRunUntil:
    def test_meets_target_se(self):
        runner = make_runner(chunk_size=512)
        estimate = runner.run_until(5, target_se=0.01, max_trials=100_000)
        assert estimate.standard_error <= 0.01
        assert estimate.trials < 100_000  # stopped well before the cap
        assert runner.last_report.trials == estimate.trials

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_bit_identical_across_worker_counts(self, workers):
        serial = make_runner(chunk_size=512).run_until(
            42, target_se=0.005, max_trials=50_000
        )
        scenario = get_scenario("iid-settlement", depth=15)
        runner = ExperimentRunner(scenario, chunk_size=512)
        with ProcessBackend(workers) as pool:
            assert (
                runner.run_until(
                    42, target_se=0.005, max_trials=50_000, backend=pool
                )
                == serial
            )

    def test_realized_trials_deterministic(self):
        first = make_runner(chunk_size=256).run_until(
            8, target_se=0.004, max_trials=30_000
        )
        second = make_runner(chunk_size=256).run_until(
            8, target_se=0.004, max_trials=30_000
        )
        assert first == second

    def test_unreachable_target_stops_at_max_trials(self):
        runner = make_runner(chunk_size=512)
        estimate = runner.run_until(5, target_se=1e-9, max_trials=3_000)
        assert estimate.trials == 3_000
        # At the cap the run is bit-identical to the fixed-budget path.
        assert estimate == make_runner(chunk_size=512).run(3_000, seed=5)

    def test_rel_se_gives_rare_cells_more_trials(self):
        easy = make_runner(chunk_size=512, depth=5)
        hard = make_runner(chunk_size=512, depth=40)
        easy_estimate = easy.run_until(4, rel_se=0.1, max_trials=200_000)
        hard_estimate = hard.run_until(4, rel_se=0.1, max_trials=200_000)
        assert easy_estimate.value > hard_estimate.value  # rarer event
        assert hard_estimate.trials > easy_estimate.trials

    def test_warm_adaptive_run_samples_nothing(
        self, cache, counting_run_chunk
    ):
        runner = make_runner(cache, chunk_size=512)
        first = runner.run_until(6, target_se=0.01, max_trials=32_768)
        del counting_run_chunk[:]
        again = make_runner(cache, chunk_size=512)
        assert (
            again.run_until(6, target_se=0.01, max_trials=32_768) == first
        )
        assert counting_run_chunk == []
        assert again.last_report.from_cache

    def test_adaptive_chunks_reusable_by_fixed_runs(
        self, cache, counting_run_chunk
    ):
        runner = make_runner(cache, chunk_size=512)
        estimate = runner.run_until(6, target_se=0.01, max_trials=32_768)
        del counting_run_chunk[:]
        fixed = make_runner(cache, chunk_size=512)
        assert fixed.run(estimate.trials, seed=6) == estimate
        assert counting_run_chunk == []  # every chunk ledgered

    def test_ragged_max_trials_cap(self):
        """A cap that is not a chunk multiple still lands exactly on it."""
        runner = make_runner(chunk_size=512)
        estimate = runner.run_until(3, target_se=1e-9, max_trials=1_300)
        assert estimate.trials == 1_300
        assert estimate == make_runner(chunk_size=512).run(1_300, seed=3)

    def test_cap_smaller_than_a_chunk(self):
        runner = make_runner(chunk_size=4_096)
        estimate = runner.run_until(3, target_se=1e-9, max_trials=100)
        assert estimate.trials == 100
        assert estimate == make_runner(chunk_size=4_096).run(100, seed=3)

    def test_validation(self):
        runner = make_runner()
        with pytest.raises(ValueError, match="target_se and/or rel_se"):
            runner.run_until(1, max_trials=100)
        with pytest.raises(ValueError, match="target_se must be positive"):
            runner.run_until(1, target_se=0.0, max_trials=100)
        with pytest.raises(ValueError, match="rel_se must be positive"):
            runner.run_until(1, rel_se=-0.1, max_trials=100)
        with pytest.raises(ValueError, match="max_trials"):
            runner.run_until(1, target_se=0.1, max_trials=0)
        with pytest.raises(ValueError, match="initial_chunks"):
            runner.run_until(
                1, target_se=0.1, max_trials=100, initial_chunks=0
            )
        with pytest.raises(ValueError, match="integer seed"):
            runner.run_until(
                np.random.default_rng(1), target_se=0.1, max_trials=100
            )
