"""The weighted-accumulator contract: the PR 8 refactor's guarantees.

Three pinned properties:

* **Degenerate bit-identity** — an estimator returning 0/1 *weights*
  (floats) produces the very same ``Estimate`` objects as the boolean
  hit-count path, across seeds, chunk sizes, and all three backends:
  ``estimate_from_moments`` delegates degenerate triples wholesale to
  ``estimate_from_hits``, so PR 7 results are reproduced bit for bit.
* **Ledger validation** — malformed entries (bare integer hit counts
  included) degrade the whole ledger to an all-miss, which the next
  write heals.
* **Weighted standard errors** — non-degenerate accumulators estimate
  ``se`` from the second moment, with the all-equal-weights guard that
  keeps ``run_until`` from terminating on a spuriously zero ``se``.
"""

import json
import math

import numpy as np
import pytest

import repro.engine.parallel as parallel_module
from repro.engine import (
    ChunkAccumulator,
    ExperimentRunner,
    ProcessBackend,
    ResultCache,
    SerialBackend,
    accumulate_weights,
    as_accumulator,
    estimate_from_hits,
    estimate_from_moments,
    get_scenario,
    run_chunk,
    settlement_violation,
)


def settlement_violation_float(scenario, batch):
    """The default estimator with its booleans cast to 0.0/1.0 weights."""
    return settlement_violation(scenario, batch).astype(np.float64)


def constant_half_weight(scenario, batch):
    """Every trial weighs exactly 0.5: zero sample variance, value 0.5."""
    return np.full(batch.symbols.shape[0], 0.5)


class TestAccumulatorAlgebra:
    def test_builtin_sum_works(self):
        parts = [ChunkAccumulator(1.5, 2.25, 4), ChunkAccumulator(0.5, 0.25, 4)]
        total = sum(parts)
        assert total == ChunkAccumulator(2.0, 2.5, 8)
        assert sum([], ChunkAccumulator.zero()) == ChunkAccumulator.zero()

    def test_from_hits_is_degenerate(self):
        accumulator = ChunkAccumulator.from_hits(3, 10)
        assert accumulator.degenerate
        assert accumulator.as_triple() == (3.0, 3.0, 10)

    def test_fractional_moments_are_not_degenerate(self):
        assert not ChunkAccumulator(2.5, 2.5, 10).degenerate
        assert not ChunkAccumulator(3.0, 2.0, 10).degenerate

    def test_from_hits_validates(self):
        with pytest.raises(ValueError):
            ChunkAccumulator.from_hits(-1, 10)
        with pytest.raises(ValueError):
            ChunkAccumulator.from_hits(11, 10)

    def test_as_accumulator_normalizes_every_wire_shape(self):
        reference = ChunkAccumulator(2.0, 2.0, 8)
        assert as_accumulator(reference, 8) is reference
        assert as_accumulator((2.0, 2.0, 8), 8) == reference
        assert as_accumulator([2.0, 2.0, 8], 8) == reference

    def test_as_accumulator_rejects_junk(self):
        with pytest.raises(TypeError):
            as_accumulator("2", 8)
        with pytest.raises(TypeError):
            as_accumulator(True, 8)
        with pytest.raises(TypeError):
            as_accumulator(2, 8)  # a bare hit count is not a triple
        with pytest.raises(ValueError, match="expected 8"):
            as_accumulator((2.0, 2.0, 7), 8)

    def test_accumulate_weights_bool_is_exact_hits(self):
        weights = np.array([True, False, True, True])
        assert accumulate_weights(weights, 4) == ChunkAccumulator.from_hits(
            3, 4
        )

    def test_accumulate_weights_validates(self):
        with pytest.raises(ValueError, match="one weight per trial"):
            accumulate_weights(np.ones(3), 4)
        with pytest.raises(ValueError):
            accumulate_weights(np.array([1.0, -0.5]), 2)
        with pytest.raises(ValueError):
            accumulate_weights(np.array([1.0, np.inf]), 2)


class TestDegenerateBitIdentity:
    """Weight-1 runs reproduce the hit-count path bit for bit."""

    @pytest.mark.parametrize("hits,trials", [(0, 64), (64, 64), (17, 64), (1, 7)])
    def test_moments_delegate_to_hits(self, hits, trials):
        accumulator = ChunkAccumulator.from_hits(hits, trials)
        assert estimate_from_moments(accumulator) == estimate_from_hits(
            hits, trials
        )

    @pytest.mark.parametrize("seed", [0, 7, 41])
    @pytest.mark.parametrize("chunk_size", [256, 1024])
    def test_float_estimator_matches_boolean(self, seed, chunk_size):
        scenario = get_scenario("iid-settlement", depth=15)
        boolean = ExperimentRunner(scenario, chunk_size=chunk_size)
        weighted = ExperimentRunner(
            scenario,
            estimator=settlement_violation_float,
            chunk_size=chunk_size,
        )
        assert weighted.run(3_000, seed=seed) == boolean.run(3_000, seed=seed)

    @pytest.mark.parametrize(
        "backend_name", ["serial", "process", "distributed"]
    )
    def test_bit_identical_on_every_backend(self, backend_name):
        from repro.engine import DistributedBackend

        scenario = get_scenario("iid-settlement", depth=15)
        reference = ExperimentRunner(scenario, chunk_size=512).run(
            2_048, seed=12
        )
        weighted = ExperimentRunner(
            scenario, estimator=settlement_violation_float, chunk_size=512
        )
        server = None
        if backend_name == "serial":
            backend = SerialBackend()
        elif backend_name == "process":
            backend = ProcessBackend(2)
        else:
            from repro.worker import serve

            server = serve()
            backend = DistributedBackend([server.address], timeout=30.0)
        try:
            assert weighted.run(2_048, seed=12, backend=backend) == reference
        finally:
            backend.close()
            if server is not None:
                server.shutdown()
                server.server_close()

    def test_run_chunk_returns_degenerate_accumulator(self):
        scenario = get_scenario("iid-settlement", depth=15)
        child = np.random.SeedSequence(3, spawn_key=(0,))
        boolean = run_chunk(scenario, settlement_violation, 512, child)
        weighted = run_chunk(scenario, settlement_violation_float, 512, child)
        assert isinstance(boolean, ChunkAccumulator)
        assert boolean.degenerate
        assert weighted == boolean


class TestWeightedStandardErrors:
    def test_second_moment_standard_error(self):
        # Two distinct weights: p-hat = 1.25, variance = (4+1)/2 - 1.25^2.
        accumulator = accumulate_weights(np.array([2.0, 0.5]), 2)
        estimate = estimate_from_moments(accumulator)
        assert estimate.value == pytest.approx(1.25)
        expected = math.sqrt((2.125 - 1.25**2) / 2)
        assert estimate.standard_error == pytest.approx(expected)

    def test_equal_weights_floor_keeps_se_positive(self):
        """All-equal non-unit weights: the sample variance vanishes but
        the estimate is not exact — ``se`` floors at |p-hat|/sqrt(n)."""
        accumulator = accumulate_weights(np.full(64, 0.5), 64)
        estimate = estimate_from_moments(accumulator)
        assert estimate.value == pytest.approx(0.5)
        assert estimate.standard_error == pytest.approx(0.5 / 8.0)

    def test_all_zero_weights_take_the_degenerate_path(self):
        """Zero weights are the degenerate 0-hit triple: the estimate is
        the Laplace-smoothed boundary one, not a bare (0, 0)."""
        estimate = estimate_from_moments(accumulate_weights(np.zeros(64), 64))
        assert estimate == estimate_from_hits(0, 64)

    def test_run_until_cannot_stop_on_spurious_zero_se(self):
        """Without the floor, constant weights would report se = 0 after
        the first batch and the adaptive loop would stop immediately."""
        scenario = get_scenario("iid-settlement", depth=15)
        runner = ExperimentRunner(
            scenario, estimator=constant_half_weight, chunk_size=256
        )
        estimate = runner.run_until(9, rel_se=0.01, max_trials=2_048)
        assert estimate.trials == 2_048  # ran to the cap, did not stop early
        assert estimate.value == pytest.approx(0.5)


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


@pytest.fixture
def counting_run_chunk(monkeypatch):
    calls = []

    def counted(scenario, estimator, size, child):
        calls.append(size)
        return run_chunk(scenario, estimator, size, child)

    monkeypatch.setattr(parallel_module, "run_chunk", counted)
    return calls


def make_runner(cache=None, chunk_size=512):
    scenario = get_scenario("iid-settlement", depth=15)
    return ExperimentRunner(scenario, chunk_size=chunk_size, cache=cache)


class TestLedgerMigration:
    @pytest.mark.parametrize(
        "triple",
        [
            [1.0, 1.0, 513],  # trials > chunk_size
            [float("nan"), 1.0, 512],  # non-finite moment
            [1.0, -1.0, 512],  # negative second moment
            [1.0, 1.0],  # wrong arity
            "many",  # wrong type entirely
            51,  # a bare hit count, not a triple
        ],
    )
    def test_corrupt_record_misses_only_its_chunk_and_heals(
        self, cache, counting_run_chunk, triple
    ):
        runner = make_runner(cache)
        runner.run(2_048, seed=29)
        (path,) = cache.directory.glob("*.ledger.jsonl")
        header, _chunk_0, *rest = path.read_bytes().splitlines()
        bad = [0, *triple] if isinstance(triple, list) else [0, triple]
        path.write_bytes(b"\n".join([header, json.dumps(bad).encode(), *rest]))
        reopened = ResultCache(cache.directory)
        fresh_runner = ExperimentRunner(
            runner.scenario, chunk_size=512, cache=reopened
        )
        del counting_run_chunk[:]
        result = fresh_runner.run(4_096, seed=29)
        assert counting_run_chunk == [512] * 5  # chunk 0 and chunks 4..7
        assert result == make_runner().run(4_096, seed=29)
        # The append healed the file: a second extension reuses all.
        del counting_run_chunk[:]
        again = ExperimentRunner(
            runner.scenario, chunk_size=512, cache=ResultCache(cache.directory)
        )
        assert again.run(4_096, seed=29) == result
        assert counting_run_chunk == []  # every chunk ledgered

    def test_weighted_chunks_round_trip_through_ledger(self, cache):
        """Non-degenerate accumulators survive the ledger bit for bit."""
        scenario = get_scenario("iid-settlement", depth=15)
        runner = ExperimentRunner(
            scenario,
            estimator=constant_half_weight,
            chunk_size=512,
            cache=cache,
        )
        first = runner.run(1_024, seed=31)
        reopened = ResultCache(cache.directory)
        rerun = ExperimentRunner(
            scenario,
            estimator=constant_half_weight,
            chunk_size=512,
            cache=reopened,
        )
        assert rerun.run(1_024, seed=31) == first
