"""Chunk ledger: round trips are bit-equal, any key change is a miss."""

import json
import multiprocessing

import numpy as np
import pytest

import repro.engine.cache as cache_module
import repro.engine.runner as runner_module
from repro.core.distributions import bernoulli_condition
from repro.engine import (
    ExperimentRunner,
    NoUniqueCatalanInWindow,
    ResultCache,
    delta_settlement_violation,
    get_scenario,
    run_chunk,
    settlement_violation,
)
from repro.engine.cache import LEDGER_VERSION, cache_from_env, estimator_token


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


@pytest.fixture
def counting_run_chunk(monkeypatch):
    """Record the size of every chunk actually sampled (patched where
    the runner resolves ``run_chunk``, the task it submits)."""
    calls = []

    def counted(scenario, estimator, size, child):
        calls.append(size)
        return run_chunk(scenario, estimator, size, child)

    monkeypatch.setattr(runner_module, "run_chunk", counted)
    return calls


def make_runner(cache, **overrides):
    overrides.setdefault("depth", 15)
    scenario = get_scenario("iid-settlement", **overrides)
    return ExperimentRunner(scenario, chunk_size=512, cache=cache)


#: The positions of a ledger record line.
RECORD_FIELDS = ("index", "hits", "trials")


def ledger_lines(cache) -> list[bytes]:
    (path,) = cache.directory.glob("*.ledger.jsonl")
    return path.read_bytes().splitlines()


class TestRoundTrip:
    def test_cached_result_is_bit_equal(self, cache):
        runner = make_runner(cache)
        fresh = runner.run(4_000, seed=17)  # 7 full chunks + ragged 416
        assert (cache.chunk_hits, cache.chunk_misses, cache.chunk_stores) == (
            0,
            8,
            8,
        )
        warm = runner.run(4_000, seed=17)
        assert warm == fresh  # dataclass equality: value, se, trials
        assert cache.chunk_hits == 8 and cache.chunk_stores == 8

    def test_warm_run_does_no_sampling(self, cache, monkeypatch):
        runner = make_runner(cache)
        fresh = runner.run(2_000, seed=1)  # ends on a ragged chunk

        def exploding(*args):  # pragma: no cover - must not run
            raise AssertionError("chunk executed on a warm cache")

        monkeypatch.setattr(runner_module, "run_chunk", exploding)
        assert runner.run(2_000, seed=1) == fresh
        assert runner.last_report.from_cache

    def test_entry_survives_process_boundary(self, cache):
        """Ledgers are plain JSON lines: a fresh ResultCache over the
        same directory (a new process, in practice) serves the same
        bits."""
        runner = make_runner(cache)
        fresh = runner.run(3_000, seed=23)  # 5 full chunks + ragged 440
        reopened = ResultCache(cache.directory)
        runner_again = ExperimentRunner(
            runner.scenario, chunk_size=512, cache=reopened
        )
        assert runner_again.run(3_000, seed=23) == fresh
        assert reopened.chunk_hits == 6 and reopened.chunk_stores == 0


class TestStats:
    """The stats() satellite: counters the orchestrators' footers print."""

    def test_fresh_cache_has_no_rate(self, cache):
        assert cache.stats() == {
            "chunk_hits": 0,
            "chunk_misses": 0,
            "chunk_stores": 0,
            "chunk_lookups": 0,
            "chunk_hit_rate": None,
        }

    def test_traffic_is_counted(self, cache):
        runner = make_runner(cache)
        runner.run(1_000, seed=5)  # 2 chunk misses + stores
        runner.run(1_000, seed=5)  # 2 chunk hits
        runner.run(1_000, seed=6)  # 2 chunk misses + stores
        stats = cache.stats()
        assert stats["chunk_hits"] == 2
        assert stats["chunk_misses"] == 4
        assert stats["chunk_stores"] == 4
        assert stats["chunk_lookups"] == 6
        assert stats["chunk_hit_rate"] == pytest.approx(1 / 3)


class TestInvalidation:
    """Any key component changes ⇒ miss; a trial count is only a prefix."""

    def test_changed_seed_misses(self, cache):
        runner = make_runner(cache)
        runner.run(2_000, seed=5)
        runner.run(2_000, seed=6)
        assert cache.chunk_stores == 8 and cache.chunk_hits == 0

    def test_changed_trials_reuses_the_prefix(self, cache):
        runner = make_runner(cache)
        runner.run(2_000, seed=5)  # 3 full chunks + ragged 464
        runner.run(2_001, seed=5)  # the same 3 full chunks + ragged 465
        assert cache.chunk_hits == 3 and cache.chunk_stores == 5

    def test_changed_chunk_size_misses(self, cache):
        make_runner(cache).run(2_000, seed=5)
        scenario = get_scenario("iid-settlement", depth=15)
        ExperimentRunner(scenario, chunk_size=256, cache=cache).run(
            2_000, seed=5
        )
        assert cache.chunk_hits == 0

    def test_changed_scenario_field_misses(self, cache):
        make_runner(cache).run(2_000, seed=5)
        make_runner(cache, depth=16).run(2_000, seed=5)
        assert cache.chunk_stores == 8 and cache.chunk_hits == 0

    def test_changed_probabilities_miss(self, cache):
        make_runner(cache).run(2_000, seed=5)
        make_runner(
            cache, probabilities=bernoulli_condition(0.4, 0.3)
        ).run(2_000, seed=5)
        assert cache.chunk_stores == 8 and cache.chunk_hits == 0

    def test_changed_estimator_misses(self, cache):
        scenario = get_scenario("iid-settlement", depth=15)
        key_a = cache.ledger_key(scenario, settlement_violation, 1, 512)
        key_b = cache.ledger_key(scenario, delta_settlement_violation, 1, 512)
        assert cache.digest(key_a) != cache.digest(key_b)

    def test_a_run_hashes_its_key_once(self, cache, monkeypatch):
        # Every wave of one run shares the run's key object, so its
        # ledger path is hashed once; the next run's key is hashed anew
        # and lands in its own ledger.
        hashed = []
        digest = ResultCache.digest

        def counted(key):
            hashed.append(key["seed"])
            return digest(key)

        monkeypatch.setattr(ResultCache, "digest", staticmethod(counted))
        runner = make_runner(cache)
        for seed in (5, 6):
            runner.run_until(seed, target_se=1e-4, max_trials=8 * 512)
            assert runner.last_report.waves == 2
        assert hashed == [5, 6]
        assert len(list(cache.directory.glob("*.ledger.jsonl"))) == 2


class TestEstimatorTokens:
    def test_function_token_is_qualified_name(self):
        token = estimator_token(settlement_violation)
        assert token == "repro.engine.runner.settlement_violation"

    def test_window_estimator_token_includes_parameters(self):
        near = estimator_token(NoUniqueCatalanInWindow(10, 20))
        far = estimator_token(NoUniqueCatalanInWindow(10, 21))
        assert near != far
        assert "window_length=20" in near

    def test_lambda_rejected(self):
        with pytest.raises(ValueError, match="no stable identity"):
            estimator_token(lambda scenario, batch: None)

    def test_closure_rejected(self):
        def factory(start):
            def estimator(scenario, batch):
                return start

            return estimator

        with pytest.raises(ValueError, match="no stable identity"):
            estimator_token(factory(3))


class TestRobustness:
    @pytest.mark.parametrize(
        "field,bad",
        [
            ("index", "0"),
            ("index", 0.0),
            ("index", False),  # a bool compares equal to index 0
            ("hits", "0.25"),  # hand-edited string loads, crashes later
            ("hits", float("nan")),
            ("hits", True),
            ("hits", 513),  # more hits than the chunk has trials
            ("hits", -1),
            ("hits", 0.5),  # a fractional hit count
            ("trials", 512.0),  # float trials breaks exact-int arithmetic
            ("trials", "512"),
            ("trials", 0),
            ("trials", True),
            ("trials", 513),  # more trials than a chunk holds
        ],
    )
    def test_type_invalid_record_misses_only_its_chunk(
        self, cache, counting_run_chunk, field, bad
    ):
        """Wrong numeric *types* (not just malformed JSON) in one record
        make that chunk a miss instead of loading and crashing
        downstream; the run re-samples it and the append heals it."""
        runner = make_runner(cache)
        fresh = runner.run(2_000, seed=9)
        (path,) = cache.directory.glob("*.ledger.jsonl")
        header, first, *rest = ledger_lines(cache)
        record = json.loads(first)
        assert record[0] == 0 and record[2] == 512
        record[RECORD_FIELDS.index(field)] = bad
        bad_line = json.dumps(record).encode()
        path.write_bytes(b"\n".join([header, bad_line, *rest]))
        del counting_run_chunk[:]
        reopened = ResultCache(cache.directory)
        again = ExperimentRunner(
            runner.scenario, chunk_size=512, cache=reopened
        )
        assert again.run(2_000, seed=9) == fresh
        assert counting_run_chunk == [512]
        assert reopened.chunk_hits == 3 and reopened.chunk_stores == 1
        del counting_run_chunk[:]
        assert make_runner(ResultCache(cache.directory)).run(
            2_000, seed=9
        ) == fresh
        assert counting_run_chunk == []

    def test_corrupt_file_is_an_all_miss_and_heals(
        self, cache, counting_run_chunk
    ):
        runner = make_runner(cache)
        fresh = runner.run(2_000, seed=9)
        (path,) = cache.directory.glob("*.ledger.jsonl")
        path.write_text("{not json")
        del counting_run_chunk[:]
        assert runner.run(2_000, seed=9) == fresh
        assert counting_run_chunk == [512, 512, 512, 464]
        del counting_run_chunk[:]
        assert runner.run(2_000, seed=9) == fresh
        assert counting_run_chunk == []

    def test_torn_trailing_record_resamples_only_that_chunk(
        self, cache, counting_run_chunk
    ):
        """A writer that died mid-append leaves a torn last line: only
        that chunk is re-sampled, and the next append starts on a fresh
        line so every chunk is reusable afterwards."""
        runner = make_runner(cache)
        fresh = runner.run(2_000, seed=9)
        (path,) = cache.directory.glob("*.ledger.jsonl")
        data = path.read_bytes()
        path.write_bytes(data[: data.rindex(b",")])  # cut mid-record
        uncached = make_runner(None).run(2_000, seed=9)
        del counting_run_chunk[:]
        assert runner.run(2_000, seed=9) == uncached
        assert counting_run_chunk == [464]
        del counting_run_chunk[:]
        assert make_runner(ResultCache(cache.directory)).run(
            2_000, seed=9
        ) == fresh
        assert counting_run_chunk == []

    def test_ledger_header_describes_the_file(self, cache):
        runner = make_runner(cache)
        runner.run(2_000, seed=9)
        header, *records = (json.loads(line) for line in ledger_lines(cache))
        assert header["version"] == LEDGER_VERSION
        assert header["key"]["seed"] == 9
        assert header["key"]["chunk_size"] == 512
        assert header["key"]["scenario"]["depth"] == 15
        assert header["key"]["estimator"].endswith("settlement_violation")
        assert [(r[0], r[2]) for r in records] == [
            (0, 512),
            (1, 512),
            (2, 512),
            (3, 464),
        ]

    def test_other_schema_version_is_not_read(self, cache, counting_run_chunk):
        runner = make_runner(cache)
        runner.run(1_024, seed=9)
        (path,) = cache.directory.glob("*.ledger.jsonl")
        header, *records = ledger_lines(cache)
        stale = json.loads(header)
        stale["version"] = LEDGER_VERSION - 1
        path.write_bytes(b"\n".join([json.dumps(stale).encode(), *records]))
        del counting_run_chunk[:]
        runner.run(1_024, seed=9)
        assert counting_run_chunk == [512, 512]

    @pytest.mark.parametrize(
        "payload",
        [
            [1, 513],  # trials > chunk_size
            [float("nan"), 512],  # a non-finite hit count
            [-1, 512],  # a negative hit count
            [1.0, 1.0, 512],  # a v3 moment triple: wrong arity
            "many",  # wrong type entirely
            51,  # a bare hit count without its trials
        ],
    )
    def test_corrupt_record_misses_only_its_chunk_and_heals(
        self, cache, counting_run_chunk, payload
    ):
        """A bad chunk-0 record inside a run that is then extended: only
        chunk 0 and the new chunks are sampled, and the append heals the
        file so a second extension samples nothing."""
        runner = make_runner(cache)
        runner.run(2_048, seed=29)
        (path,) = cache.directory.glob("*.ledger.jsonl")
        header, _chunk_0, *rest = path.read_bytes().splitlines()
        bad = [0, *payload] if isinstance(payload, list) else [0, payload]
        bad_line = json.dumps(bad).encode()
        path.write_bytes(b"\n".join([header, bad_line, *rest]))
        reopened = ExperimentRunner(
            runner.scenario, chunk_size=512, cache=ResultCache(cache.directory)
        )
        del counting_run_chunk[:]
        result = reopened.run(4_096, seed=29)
        assert counting_run_chunk == [512] * 5  # chunk 0 and chunks 4..7
        assert result == make_runner(None).run(4_096, seed=29)
        del counting_run_chunk[:]
        again = ExperimentRunner(
            runner.scenario, chunk_size=512, cache=ResultCache(cache.directory)
        )
        assert again.run(4_096, seed=29) == result
        assert counting_run_chunk == []

    @pytest.mark.parametrize(
        "version", [LEDGER_VERSION - 1, LEDGER_VERSION + 1]
    )
    def test_other_schema_version_starts_a_fresh_ledger(
        self, cache, counting_run_chunk, monkeypatch, version
    ):
        """The schema version is part of the ledger key, so a ledger
        another version wrote is left alone at its own path: the first
        run samples every chunk into a fresh ledger, the second samples
        none."""
        with monkeypatch.context() as patch:
            patch.setattr(cache_module, "LEDGER_VERSION", version)
            fresh = make_runner(cache).run(2_000, seed=9)
        (foreign,) = cache.directory.glob("*.ledger.jsonl")
        written = foreign.read_bytes()
        assert json.loads(written.splitlines()[0])["version"] == version
        del counting_run_chunk[:]
        assert make_runner(ResultCache(cache.directory)).run(
            2_000, seed=9
        ) == fresh
        assert counting_run_chunk == [512, 512, 512, 464]
        del counting_run_chunk[:]
        assert make_runner(ResultCache(cache.directory)).run(
            2_000, seed=9
        ) == fresh
        assert counting_run_chunk == []
        assert foreign.read_bytes() == written
        assert len(list(cache.directory.glob("*.ledger.jsonl"))) == 2

    def test_cache_from_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_CACHE", raising=False)
        assert cache_from_env() is None
        monkeypatch.setenv("REPRO_SWEEP_CACHE", str(tmp_path / "c"))
        env_cache = cache_from_env()
        assert env_cache is not None
        assert env_cache.directory == tmp_path / "c"
        assert cache_from_env(default=tmp_path / "d").directory == tmp_path / "c"


def _ledger_alternate_chunks(directory, parity, barrier) -> None:
    """One of two racing writers: ledger every other chunk of one run
    configuration, one single-chunk wave at a time, so the two writers'
    records are disjoint and any lost append shows as a missing chunk."""
    cache = ResultCache(directory)
    runner = make_runner(None)
    key = cache.ledger_key(runner.scenario, runner.estimator, 3, 512)
    barrier.wait()
    for index in range(parity, CONCURRENT_CHUNKS, 2):
        child = np.random.SeedSequence(3, spawn_key=(index,))
        hits = run_chunk(runner.scenario, runner.estimator, 512, child)
        cache.put_chunks(key, {(index, 512): hits})


CONCURRENT_CHUNKS = 64


class TestConcurrentWriters:
    def test_two_writers_lose_no_chunk(self, cache, counting_run_chunk):
        """Appends are whole and locked, so whatever the interleaving,
        every chunk either writer ledgered is in the file exactly once:
        every line decodes and a fresh runner samples nothing."""
        context = multiprocessing.get_context("spawn")
        barrier = context.Barrier(2)
        writers = [
            context.Process(
                target=_ledger_alternate_chunks,
                args=(cache.directory, parity, barrier),
            )
            for parity in (0, 1)
        ]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=120)
        assert [writer.exitcode for writer in writers] == [0, 0]

        header, *records = (json.loads(line) for line in ledger_lines(cache))
        assert header["version"] == LEDGER_VERSION
        assert sorted((r[0], r[2]) for r in records) == [
            (index, 512) for index in range(CONCURRENT_CHUNKS)
        ]
        trials = CONCURRENT_CHUNKS * 512
        uncached = make_runner(None).run(trials, seed=3)
        del counting_run_chunk[:]
        assert make_runner(ResultCache(cache.directory)).run(
            trials, seed=3
        ) == uncached
        assert counting_run_chunk == []
