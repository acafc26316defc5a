"""The one chunk path: NumPy kernels, one wave primitive, one seed form.

Every run — fixed-budget ``run``, deferred ``submit`` and adaptive
``run_until`` — turns chunk indices into hit counts the same way:
look every chunk up in the ledger by ``(index, size)``, dispatch the
missing indices (chunk ``i`` from ``SeedSequence(seed, spawn_key=(i,))``),
collect, ledger the fresh chunks and add up their hits.  These tests
watch that path from the backend's side (which indices are dispatched,
with which seeds, in which waves), pin the reports it produces, that a
partly ledgered run equals a cold one, that the runner never opens a
pool of its own, the integer-seed and hit-count-only forms, and the
in-place NumPy forms of the scan kernels.
"""

import numpy as np
import pytest

import repro.engine.parallel as parallel_module
from repro.delta.reduction import reduce_string
from repro.engine import (
    ExperimentRunner,
    ResultCache,
    SerialBackend,
    get_scenario,
    kernels,
    run_chunk,
)
from tests.conftest import random_strings
from tests.core.references import decode_matrix, encode_words

CHUNK = 512


class RecordingBackend(SerialBackend):
    """A serial backend that records every ``submit_task(run_chunk, …)``
    call, grouped into waves: a submission after a result has been
    collected opens a new wave."""

    def __init__(self):
        self.waves = []
        self.collected = True

    def submit_task(self, function, /, *args):
        assert function is run_chunk
        _, _, size, child = args
        if self.collected:
            self.waves.append([])
            self.collected = False
        self.waves[-1].append((size, child.spawn_key, child.entropy))
        return _CollectedFuture(self, super().submit_task(function, *args))

    @property
    def calls(self):
        """``(sizes, spawn keys, entropies)`` of each wave."""
        return [tuple(map(list, zip(*wave))) for wave in self.waves]

    @property
    def indices(self):
        """Dispatched chunk indices, one list per wave."""
        return [[key[0] for key in keys] for _, keys, _ in self.calls]


class _CollectedFuture:
    """A future that tells its :class:`RecordingBackend` it was
    collected, closing the current wave."""

    def __init__(self, backend, future):
        self.backend = backend
        self.future = future

    def result(self):
        self.backend.collected = True
        return self.future.result()


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


def make_runner(cache=None, estimator=None):
    scenario = get_scenario("iid-settlement", depth=15)
    return ExperimentRunner(
        scenario, estimator=estimator, chunk_size=CHUNK, cache=cache
    )


class TestNumpyScanKernels:
    @pytest.mark.parametrize("shape", [(1, 1), (7, 0), (5, 33), (64, 200)])
    def test_prefix_sums_are_the_cumulated_walk_steps(self, shape):
        generator = np.random.default_rng(sum(shape))
        symbols = generator.integers(0, 4, size=shape).astype(np.uint8)
        steps = (symbols == kernels.CODE_ADVERSARIAL).astype(np.int64)
        steps -= symbols < kernels.CODE_ADVERSARIAL
        expected = np.concatenate(
            [np.zeros((shape[0], 1), dtype=np.int64), steps.cumsum(axis=1)],
            axis=1,
        )
        sums = kernels.prefix_sum_matrix(symbols)
        assert sums.dtype == np.int64
        assert np.array_equal(sums, expected)

    def test_prefix_sums_leave_the_symbols_untouched(self):
        symbols = np.random.default_rng(3).integers(
            0, 4, size=(9, 21)
        ).astype(np.uint8)
        before = symbols.copy()
        kernels.prefix_sum_matrix(symbols)
        assert np.array_equal(symbols, before)

    def test_reduction_ignores_columns_past_each_row_length(self):
        """The in-place window count only sees each row's true length:
        junk written past it changes nothing."""
        words = random_strings("hHA.", 60, 1, 30, seed=17)
        matrix, lengths = encode_words(words)
        junk = np.random.default_rng(17).integers(
            0, 4, size=matrix.shape
        ).astype(np.uint8)
        past = np.arange(matrix.shape[1])[None, :] >= lengths[:, None]
        matrix[past] = junk[past]
        reduced, reduced_lengths = kernels.reduce_matrix(matrix, 2, lengths)
        assert decode_matrix(reduced, reduced_lengths) == [
            reduce_string(word, 2) for word in words
        ]


class TestOneWavePath:
    def test_fixed_run_is_one_wave_over_every_index(self):
        backend = RecordingBackend()
        make_runner().run(2 * CHUNK + 256, seed=31, backend=backend)
        ((sizes, keys, entropies),) = backend.calls
        assert sizes == [CHUNK, CHUNK, 256]
        assert keys == [(0,), (1,), (2,)]
        assert entropies == [31, 31, 31]

    def test_warm_ledger_dispatches_only_new_full_chunks_and_ragged(
        self, cache
    ):
        runner = make_runner(cache)
        runner.run(4 * CHUNK, seed=32)
        backend = RecordingBackend()
        extended = runner.run(5 * CHUNK + 440, seed=32, backend=backend)
        assert backend.indices == [[4, 5]]
        assert backend.calls[0][0] == [CHUNK, 440]
        assert extended == make_runner().run(5 * CHUNK + 440, seed=32)

    def test_fully_ledgered_wave_dispatches_nothing(self, cache):
        runner = make_runner(cache)
        runner.run(4 * CHUNK, seed=33)
        reopened = ExperimentRunner(
            runner.scenario,
            chunk_size=CHUNK,
            cache=ResultCache(cache.directory),
        )
        backend = RecordingBackend()
        # A shorter prefix of the same chunk stream: all in the ledger.
        reopened.run(3 * CHUNK, seed=33, backend=backend)
        assert backend.indices == []
        assert reopened.last_report.sampled_chunks == 0
        assert reopened.last_report.reused_chunks == 3

    def test_run_until_waves_cover_each_index_once_in_order(self):
        backend = RecordingBackend()
        runner = make_runner()
        max_trials = 11 * CHUNK + 100
        estimate = runner.run_until(
            41, target_se=1e-9, max_trials=max_trials, backend=backend
        )
        assert estimate.trials == max_trials
        flat = [index for wave in backend.indices for index in wave]
        assert flat == list(range(12))
        assert backend.indices[0] == [0, 1, 2, 3]  # initial_chunks
        assert backend.indices[-1] == [11]  # the ragged last wave
        assert backend.calls[-1][0] == [100]
        assert runner.last_report.waves == len(backend.calls)

    def test_submit_dispatches_now_and_ledgers_on_result(self, cache):
        runner = make_runner(cache)
        backend = RecordingBackend()
        pending = runner.submit(3 * CHUNK, seed=34, backend=backend)
        assert backend.indices == [[0, 1, 2]]
        assert not pending.from_cache
        key = cache.ledger_key(runner.scenario, runner.estimator, 34, CHUNK)
        sizes = {index: CHUNK for index in range(3)}
        assert cache.get_chunks(key, sizes) == {}
        pending.result()
        assert sorted(cache.get_chunks(key, sizes)) == [0, 1, 2]

    def test_submit_result_equals_run_and_is_stable(self, cache):
        runner = make_runner(cache)
        pending = runner.submit(
            3 * CHUNK + 7, seed=35, backend=SerialBackend()
        )
        first = pending.result()
        assert pending.result() is first
        assert first == make_runner().run(3 * CHUNK + 7, seed=35)
        warm = runner.submit(3 * CHUNK + 7, seed=35, backend=SerialBackend())
        assert warm.from_cache and warm.result() == first


class TestRunReports:
    def test_cold_fixed_run(self):
        runner = make_runner()
        runner.run(3 * CHUNK + 10, seed=51)
        report = runner.last_report
        assert report.trials == 3 * CHUNK + 10
        assert report.sampled_trials == 3 * CHUNK + 10
        assert report.reused_trials == 0
        assert (report.sampled_chunks, report.reused_chunks) == (4, 0)
        assert report.waves == 1 and not report.from_cache

    def test_warm_fixed_run_reuses_every_chunk(self, cache):
        runner = make_runner(cache)
        runner.run(3 * CHUNK + 10, seed=52)
        runner.run(3 * CHUNK + 10, seed=52)
        report = runner.last_report
        assert report.waves == 1 and report.from_cache
        assert report.reused_trials == 3 * CHUNK + 10
        assert report.reused_chunks == 4 and report.sampled_chunks == 0

    def test_run_until_trials_add_up_over_waves(self, cache):
        runner = make_runner(cache)
        runner.run(2 * CHUNK, seed=53)
        runner.run_until(53, target_se=1e-9, max_trials=6 * CHUNK)
        report = runner.last_report
        assert report.trials == 6 * CHUNK
        assert report.reused_trials == 2 * CHUNK
        assert report.sampled_trials == 4 * CHUNK
        assert (report.reused_chunks, report.sampled_chunks) == (2, 4)
        assert report.waves >= 2 and not report.from_cache


class TestPartialLedger:
    """A wave adds up its chunks' hits wherever each came from, so a
    partly ledgered run equals a cold one."""

    def test_adaptive_run_over_partial_ledger_equals_cold(self, cache):
        rule = dict(rel_se=1e-6, max_trials=9 * CHUNK + 30)
        cold = make_runner().run_until(61, **rule)
        warm = make_runner(cache)
        warm.run(3 * CHUNK, seed=61)  # chunks 0..2 of the first wave
        resumed = warm.run_until(61, **rule)
        assert warm.last_report.reused_chunks == 3
        assert resumed == cold

    def test_fixed_run_over_partial_ledger_equals_cold(self, cache):
        cold = make_runner().run(5 * CHUNK + 3, seed=62)
        warm = make_runner(cache)
        warm.run(2 * CHUNK, seed=62)
        assert warm.run(5 * CHUNK + 3, seed=62) == cold
        assert warm.last_report.reused_chunks == 2


class _FakePool(SerialBackend):
    """Stands in for ProcessBackend: records its size and closing."""

    made = []

    def __init__(self, workers=None):
        self.workers = workers
        self.closed = False
        _FakePool.made.append(self)

    def close(self):
        self.closed = True


class TestBackendResolution:
    @pytest.fixture
    def fake_pool(self, monkeypatch):
        _FakePool.made = []
        monkeypatch.setattr(parallel_module, "ProcessBackend", _FakePool)
        return _FakePool.made

    def test_given_backend_runs_every_chunk(self, fake_pool):
        backend = RecordingBackend()
        make_runner().run(CHUNK, seed=71, backend=backend)
        assert backend.indices == [[0]]
        assert fake_pool == []

    def test_no_backend_runs_in_process(self, fake_pool):
        make_runner().run(CHUNK, seed=73)
        make_runner().run_until(73, target_se=1e-9, max_trials=2 * CHUNK)
        assert fake_pool == []


class TestIntegerSeeds:
    def test_submit_rejects_a_generator(self):
        with pytest.raises(ValueError, match="integer seed"):
            make_runner().submit(
                100, np.random.default_rng(1), SerialBackend()
            )

    def test_run_until_rejects_a_generator(self):
        with pytest.raises(ValueError, match="integer seed"):
            make_runner().run_until(
                np.random.default_rng(1), target_se=0.1, max_trials=100
            )


class TestHitCountLedger:
    @pytest.mark.parametrize(
        "chunk",
        [
            ((0, CHUNK), (51.0, 51.0, CHUNK)),  # a v3 moment triple
            ((0, CHUNK), 51.0),  # a float, even an integral one
            ((0, CHUNK), True),
            ((0, CHUNK), CHUNK + 1),  # more hits than trials
            ((0, CHUNK + 1), 51),  # a chunk larger than the ledger's
        ],
    )
    def test_put_chunks_rejects_what_the_loader_would_skip(
        self, cache, chunk
    ):
        runner = make_runner(cache)
        key = cache.ledger_key(runner.scenario, runner.estimator, 81, CHUNK)
        with pytest.raises(ValueError, match="not a chunk record"):
            cache.put_chunks(key, dict([chunk]))
        assert not cache.ledger_path(key).exists()
