"""Content-addressed on-disk chunk ledger for Monte-Carlo runs.

The cache has one granularity: the **chunk**.  A run configuration —
the frozen :class:`~repro.engine.scenarios.Scenario`, the estimator,
the integer seed and the chunk size — owns one *ledger*, and the ledger
holds one hit count per chunk the runner ever computed for it, keyed by
``(index, size)``.  Because the runner's spawned ``SeedSequence``
children form a prefix-stable stream (chunk ``i`` is seeded by
``SeedSequence(seed, spawn_key=(i,))`` regardless of how many chunks a
run needs — see the :mod:`repro.engine.runner` reproducibility
contract), a trial count merely selects a prefix of the chunk stream:
an identical rerun reads every chunk back and samples nothing, and
extending a run samples only the chunks the ledger lacks.  The ragged remainder is a shorter draw
from the same child, so its size is part of its identity: a run of
1,000 trials in 512-trial chunks ledgers ``(0, 512)`` and ``(1, 488)``,
and a later run of 1,500 reuses ``(0, 512)`` but samples ``(1, 512)``
and ``(2, 476)``.

Invalidation rule: **any key component changes ⇒ miss.**  There is no
TTL and no partial matching — a ledger record is exactly the
bit-reproducible output of one chunk of one run configuration, so it can
only ever be reused for that same chunk.  Deleting the cache directory
is always safe (everything regenerates).

Estimators are identified by a *token*: module-level functions by their
qualified name, frozen-dataclass estimators (the window estimators) by
their qualified class name plus field values.  Lambdas and closures have
no stable identity and are rejected — give the estimator a name (a
``def`` or a frozen dataclass) to make it cacheable.

Layout: one append-only JSON-lines file,
``<directory>/<sha256-prefix>.ledger.jsonl``, per run configuration.
The first line is a header carrying the human-readable key, so a cache
directory doubles as a record of every configuration ever run; each
later line is one chunk record ``[index, hits, trials]``::

    {"key": {"kind": "chunk-ledger", "version": 4, "scenario": {...},
             "estimator": "...", "seed": 7, "chunk_size": 4096},
     "version": 4}
    [0, 51, 4096]
    [1, 47, 4096]
    [2, 12, 1808]

The schema version is part of the key, so a ledger another version
wrote lives at another path and is never read or appended to: a cache
directory outlives a schema change at the cost of one re-sampling.

Concurrency: :meth:`ResultCache.put_chunks` appends a wave's records in
one write under an exclusive ``fcntl.flock``, so concurrent writers
never interleave or drop each other's records.  A reader takes no lock:
a record still being written is torn, and a torn or malformed record
makes only its own chunk a miss.  The first valid record per
``(index, size)`` wins; duplicates arise only from writers racing on
the same chunk and are bit-identical by the reproducibility contract.
"""

from __future__ import annotations

import dataclasses
import fcntl
import hashlib
import json
import os
import pathlib

from repro.engine.runner import Estimator, is_hit_count
from repro.engine.scenarios import Scenario
from repro.obs import metrics

__all__ = [
    "ResultCache",
    "cache_from_env",
    "estimator_token",
    "format_stats",
    "scenario_fingerprint",
    "CACHE_DIR_ENV",
    "LEDGER_VERSION",
]

#: Current on-disk chunk-ledger schema: a JSON-lines file of
#: ``[index, hits, trials]`` records after one header line.
LEDGER_VERSION = 4


def format_stats(stats: dict) -> str:
    """One-line rendering of :meth:`ResultCache.stats` for run footers.

    Shared by the sweep CLI and the oracle builder log so the two
    surfaces cannot drift apart: it shows how much of a run's sampling
    was served from previously ledgered chunks.
    """
    return (
        f"ledger: {stats['chunk_hits']} chunk hits / "
        f"{stats['chunk_misses']} chunk misses / "
        f"{stats['chunk_stores']} chunk stores"
    )

#: Environment variable naming a cache directory; ``cache_from_env``
#: (used by the benchmarks) returns a cache there when it is set.
CACHE_DIR_ENV = "REPRO_SWEEP_CACHE"


def scenario_fingerprint(scenario: Scenario) -> dict:
    """A JSON-ready dict of every field that defines the scenario.

    ``dataclasses.asdict`` recurses into the nested
    ``SlotProbabilities``, so the fingerprint covers the full slot
    distribution; floats round-trip at full precision through JSON.
    """
    return dataclasses.asdict(scenario)


def estimator_token(estimator: Estimator) -> str:
    """A stable string identity for a cacheable estimator.

    Raises ``ValueError`` for lambdas, closures, and other anonymous
    callables — they have no identity that survives a process restart,
    so caching them would silently conflate different estimators.
    """
    if dataclasses.is_dataclass(estimator) and not isinstance(
        estimator, type
    ):
        fields = dataclasses.asdict(estimator)
        rendered = ",".join(f"{k}={fields[k]!r}" for k in sorted(fields))
        cls = type(estimator)
        return f"{cls.__module__}.{cls.__qualname__}({rendered})"
    qualname = getattr(estimator, "__qualname__", None)
    module = getattr(estimator, "__module__", None)
    if (
        qualname is None
        or module is None
        or "<lambda>" in qualname
        or "<locals>" in qualname
        or getattr(estimator, "__closure__", None)
    ):
        raise ValueError(
            f"estimator {estimator!r} has no stable identity for caching; "
            "use a module-level function or a frozen-dataclass estimator"
        )
    return f"{module}.{qualname}"


def _is_count(value) -> bool:
    """A JSON integer that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_record(index, hits, trials, chunk_size: int) -> bool:
    """Could ``[index, hits, trials]`` be a chunk of a ``chunk_size``
    ledger?  Strings, floats and booleans would load fine and crash — or
    silently miscompare — much later, and a hit count outside
    ``[0, trials]`` is no probability."""
    return (
        _is_count(index)
        and index >= 0
        and _is_count(trials)
        and 1 <= trials <= chunk_size
        and is_hit_count(hits, trials)
    )


class ResultCache:
    """A directory of content-addressed, append-only chunk ledgers.

    The cache counts its traffic (``chunk_hits``, ``chunk_misses``,
    ``chunk_stores``) so orchestrators can report *zero re-sampling* on
    warm reruns and *only the new chunks sampled* on trials extensions.
    Corrupt or torn records are misses that the next run's append
    heals — the cache is disposable by design.
    """

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.chunk_hits = 0
        self.chunk_misses = 0
        self.chunk_stores = 0
        #: ``(key, path)`` of the last key :meth:`ledger_path` hashed.
        self._last_path: tuple = (None, None)

    # -- keys ----------------------------------------------------------

    @staticmethod
    def digest(key: dict) -> str:
        """SHA-256 of the canonical serialization of ``key``."""
        canonical = json.dumps(key, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def ledger_key(
        self,
        scenario: Scenario,
        estimator: Estimator,
        seed: int,
        chunk_size: int,
    ) -> dict:
        """The canonical key of one run configuration's chunk ledger.

        Deliberately *without* ``trials``: the ledger is the prefix-
        stable chunk stream itself, and a trial count merely selects a
        prefix of it.  With the schema ``version``: records of another
        schema go to another file.  The ``kind`` marker names the file in
        its header.
        """
        return {
            "kind": "chunk-ledger",
            "version": LEDGER_VERSION,
            "scenario": scenario_fingerprint(scenario),
            "estimator": estimator_token(estimator),
            "seed": int(seed),
            "chunk_size": int(chunk_size),
        }

    def ledger_path(self, key: dict) -> pathlib.Path:
        """Where the ledger for ``key`` lives (whether or not it exists).

        The path of the last key is remembered by identity, so a run
        that hands one key object to every wave hashes it once.  A key
        is a value: build a new one rather than mutate one in use.
        """
        last_key, path = self._last_path
        if last_key is not key:
            path = self.directory / f"{self.digest(key)[:32]}.ledger.jsonl"
            self._last_path = (key, path)
        return path

    # -- traffic -------------------------------------------------------

    def get_chunks(
        self, key: dict, sizes: dict[int, int]
    ) -> dict[int, int]:
        """Ledgered hit counts for the requested chunks.

        ``sizes`` maps each wanted chunk index to its trial count;
        returns ``{index: hits}`` for every index whose ``(index, size)``
        record is in the ledger, and absent chunks are simply missing
        from the result.  Found and absent chunks count toward
        ``chunk_hits`` / ``chunk_misses``.
        """
        stored = self._load_ledger(
            self.ledger_path(key), int(key["chunk_size"])
        )
        found = {
            index: stored[index, size]
            for index, size in sizes.items()
            if (index, size) in stored
        }
        missed = len(sizes) - len(found)
        self.chunk_hits += len(found)
        self.chunk_misses += missed
        if metrics.active() is not None:
            metrics.counter(
                "repro_cache_requests_total",
                "chunk-ledger lookups by outcome",
                kind="chunk",
                result="hit",
            ).inc(len(found))
            metrics.counter(
                "repro_cache_requests_total", kind="chunk", result="miss"
            ).inc(missed)
        return found

    def put_chunks(
        self, key: dict, chunks: dict[tuple[int, int], int]
    ) -> pathlib.Path:
        """Append ``chunks`` (``{(index, size): hits}``) to the ledger.

        A record the loader would skip raises ``ValueError`` instead of
        being written.  The records go out in one append under an
        exclusive ``flock`` (with the header first when the file is
        new), so the I/O is proportional to the new chunks and
        concurrent writers lose nothing.  Returns the ledger path.
        """
        chunk_size = int(key["chunk_size"])
        for (index, size), hits in chunks.items():
            if not _is_record(index, hits, size, chunk_size):
                raise ValueError(
                    f"[{index!r}, {hits!r}, {size!r}] is not a chunk "
                    f"record of a {chunk_size}-trial ledger"
                )
        records = "".join(
            json.dumps([index, hits, size]) + "\n"
            for (index, size), hits in chunks.items()
        )
        path = self.ledger_path(key)
        with open(path, "ab+") as handle:
            fcntl.flock(handle, fcntl.LOCK_EX)
            end = handle.seek(0, os.SEEK_END)
            if end == 0:
                header = {"key": key, "version": LEDGER_VERSION}
                records = json.dumps(header) + "\n" + records
            else:
                # A writer that died mid-record left no newline: start
                # on a fresh line so only the torn record is lost.
                handle.seek(end - 1)
                if handle.read(1) != b"\n":
                    records = "\n" + records
            handle.write(records.encode())
        self.chunk_stores += len(chunks)
        metrics.counter(
            "repro_cache_stores_total",
            "chunk-ledger records appended",
            kind="chunk",
        ).inc(len(chunks))
        return path

    # -- statistics ----------------------------------------------------

    def stats(self) -> dict:
        """Traffic counters for this cache *instance* (not the directory).

        ``chunk_hit_rate`` is ``None`` before the first lookup, so it
        distinguishes "no traffic" from "0% hits".
        """
        chunk_lookups = self.chunk_hits + self.chunk_misses
        return {
            "chunk_hits": self.chunk_hits,
            "chunk_misses": self.chunk_misses,
            "chunk_stores": self.chunk_stores,
            "chunk_lookups": chunk_lookups,
            "chunk_hit_rate": (
                (self.chunk_hits / chunk_lookups) if chunk_lookups else None
            ),
        }

    @staticmethod
    def _load_ledger(
        path: pathlib.Path, chunk_size: int
    ) -> dict[tuple[int, int], int]:
        """The validated ``{(index, size): hits}`` map of a ledger.

        Each line is judged on its own.  A record must be ``[index,
        hits, trials]`` with a non-negative integer index, an integer
        ``trials`` in ``1..chunk_size`` and an integer ``hits`` in
        ``0..trials``; anything else — a torn tail, a hand-edited
        string, a bool — is skipped, so only its own chunk misses.  A
        header from another schema version makes the file an all-miss.
        """
        try:
            lines = path.read_bytes().splitlines()
        except OSError:
            return {}
        ledger: dict[tuple[int, int], int] = {}
        for line in lines:
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict):
                if record.get("version") != LEDGER_VERSION:
                    return {}
                continue
            if (
                isinstance(record, list)
                and len(record) == 3
                and _is_record(*record, chunk_size)
            ):
                index, hits, trials = record
                ledger.setdefault((index, trials), hits)
        return ledger


def cache_from_env(default: str | os.PathLike | None = None) -> ResultCache | None:
    """A :class:`ResultCache` at ``$REPRO_SWEEP_CACHE`` (or ``default``).

    Returns ``None`` when neither is set — callers can sprinkle this at
    entry points and get caching exactly when the orchestrator (for
    example ``benchmarks/run_all.py``) opted the process in.
    """
    directory = os.environ.get(CACHE_DIR_ENV) or default
    return ResultCache(directory) if directory else None
