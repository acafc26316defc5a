"""Content-addressed on-disk cache for Monte-Carlo estimates and chunks.

The cache has two granularities:

* **Estimate entries** — a whole run.  Every point a sweep (or a
  benchmark, or an example) estimates is fully determined by five
  values: the frozen :class:`~repro.engine.scenarios.Scenario`, the
  estimator, the integer seed, the trial count, and the chunk size
  (which fixes the spawned seed tree — see the
  :mod:`repro.engine.runner` reproducibility contract).  This module
  turns that 5-tuple into a canonical JSON *key*, addresses it by its
  SHA-256 digest, and stores the resulting
  :class:`~repro.engine.runner.Estimate` as one small JSON file per
  point.
* **The chunk ledger** — per-chunk weighted accumulators, keyed by
  ``(scenario, estimator, seed, chunk_size)`` with one
  ``(sum_w, sum_w2, trials)`` triple per *full* chunk index (schema
  v2).  Because the runner's spawned
  ``SeedSequence`` children form a prefix-stable stream (chunk ``i`` is
  seeded by ``SeedSequence(seed, spawn_key=(i,))`` regardless of how
  many chunks a run needs), ``trials`` is merely a *prefix length* of
  the chunk stream: extending a run reuses every previously computed
  full chunk bit-identically, and only the new chunks (plus the
  never-ledgered ragged remainder) are sampled.  One ledger file holds
  all chunks of a run configuration; the runner merges new chunks in as
  it computes them.

Invalidation rule: **any key component changes ⇒ miss.**  There is no
TTL, no versioning, no partial matching — a cache entry is exactly the
bit-reproducible output of one run configuration, so it can only ever be
reused for that same configuration.  Deleting the cache directory is
always safe (everything regenerates).

Estimators are identified by a *token*: module-level functions by their
qualified name, frozen-dataclass estimators (the window estimators) by
their qualified class name plus field values.  Lambdas and closures have
no stable identity and are rejected — give the estimator a name (a
``def`` or a frozen dataclass) to make it cacheable.

Layout: ``<directory>/<sha256-prefix>.json`` per estimate and
``<directory>/<sha256-prefix>.ledger.json`` per chunk ledger, each file
carrying both the human-readable key and the payload, so a cache
directory doubles as a tidy record of every point ever computed::

    {"key": {"scenario": {...}, "estimator": "...", "seed": 7,
             "trials": 100000, "chunk_size": 4096},
     "estimate": {"value": 0.0123, "standard_error": 0.00035,
                  "trials": 100000}}

    {"key": {"kind": "chunk-ledger", "scenario": {...},
             "estimator": "...", "seed": 7, "chunk_size": 4096},
     "version": 2,
     "chunks": {"0": [51.0, 51.0, 4096], "1": [47.0, 47.0, 4096]}}
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import os
import pathlib
import tempfile

from repro.engine.runner import (
    ChunkAccumulator,
    Estimate,
    Estimator,
    as_accumulator,
)
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

#: Current on-disk chunk-ledger schema: one ``[sum_w, sum_w2, trials]``
#: accumulator triple per chunk index.
LEDGER_VERSION = 2


def format_stats(stats: dict) -> str:
    """One-line rendering of :meth:`ResultCache.stats` for run footers.

    Shared by the sweep CLI and the oracle builder log so the two
    surfaces cannot drift apart.  Chunk-ledger traffic is appended so a
    trials-extension run can show *how much* of its sampling was served
    from previously ledgered chunks.
    """
    rate = stats["hit_rate"]
    rendered = "n/a" if rate is None else f"{100.0 * rate:.1f}%"
    return (
        f"cache: {stats['hits']} hits / {stats['misses']} misses / "
        f"{stats['stores']} stores ({rendered} hit rate); "
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


class ResultCache:
    """A directory of content-addressed estimate files and chunk ledgers.

    The cache counts its traffic — estimate-level (``hits``, ``misses``,
    ``stores``) and chunk-level (``chunk_hits``, ``chunk_misses``,
    ``chunk_stores``) — so orchestrators can report *zero re-estimation*
    on warm reruns and *only the new chunks sampled* on trials
    extensions.  Corrupt or truncated entries are treated as misses and
    overwritten on the next store — the cache is disposable by design.
    """

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.chunk_hits = 0
        self.chunk_misses = 0
        self.chunk_stores = 0

    # -- keys ----------------------------------------------------------

    def key(
        self,
        scenario: Scenario,
        estimator: Estimator,
        seed: int,
        trials: int,
        chunk_size: int,
    ) -> dict:
        """The canonical (JSON-ready) key of one run configuration."""
        return {
            "scenario": scenario_fingerprint(scenario),
            "estimator": estimator_token(estimator),
            "seed": int(seed),
            "trials": int(trials),
            "chunk_size": int(chunk_size),
        }

    @staticmethod
    def digest(key: dict) -> str:
        """SHA-256 of the canonical serialization of ``key``."""
        canonical = json.dumps(key, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def path(self, key: dict) -> pathlib.Path:
        """Where the entry for ``key`` lives (whether or not it exists)."""
        return self.directory / f"{self.digest(key)[:32]}.json"

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
        prefix of it.  The ``kind`` marker keeps ledger digests disjoint
        from estimate digests by construction.
        """
        return {
            "kind": "chunk-ledger",
            "scenario": scenario_fingerprint(scenario),
            "estimator": estimator_token(estimator),
            "seed": int(seed),
            "chunk_size": int(chunk_size),
        }

    def ledger_path(self, key: dict) -> pathlib.Path:
        """Where the ledger for ``key`` lives (whether or not it exists)."""
        return self.directory / f"{self.digest(key)[:32]}.ledger.json"

    # -- traffic -------------------------------------------------------

    def contains(self, key: dict) -> bool:
        """Is there a (well-formed) entry for ``key``?  Does not count
        toward hit/miss statistics."""
        return self._load(self.path(key)) is not None

    def get(self, key: dict) -> Estimate | None:
        """Look ``key`` up; ``None`` (and a counted miss) when absent."""
        entry = self._load(self.path(key))
        if entry is None:
            self.misses += 1
            metrics.counter(
                "repro_cache_requests_total",
                "estimate-level cache lookups by outcome",
                kind="estimate",
                result="miss",
            ).inc()
            return None
        self.hits += 1
        metrics.counter(
            "repro_cache_requests_total", kind="estimate", result="hit"
        ).inc()
        stored = entry["estimate"]
        return Estimate(
            value=stored["value"],
            standard_error=stored["standard_error"],
            trials=stored["trials"],
        )

    def put(self, key: dict, estimate: Estimate) -> pathlib.Path:
        """Store ``estimate`` under ``key``; returns the entry path.

        The write goes through a uniquely-named same-directory temporary
        file and an atomic rename, so a crashed run can leave at worst
        an orphan temporary, never a truncated entry — and concurrent
        processes storing the same key (the runs are bit-identical, so
        either entry is correct) cannot trip over each other's
        temporaries.
        """
        path = self.path(key)
        payload = {
            "key": key,
            "estimate": {
                "value": estimate.value,
                "standard_error": estimate.standard_error,
                "trials": estimate.trials,
            },
        }
        descriptor, temp_name = tempfile.mkstemp(
            dir=self.directory, suffix=".tmp"
        )
        try:
            with os.fdopen(descriptor, "w") as handle:
                handle.write(json.dumps(payload, indent=2) + "\n")
            os.replace(temp_name, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(temp_name)
            raise
        self.stores += 1
        metrics.counter(
            "repro_cache_stores_total",
            "cache writes by granularity",
            kind="estimate",
        ).inc()
        return path

    # -- chunk ledger --------------------------------------------------

    def get_chunks(self, key: dict, indices) -> dict[int, ChunkAccumulator]:
        """Ledgered accumulators for the requested chunk ``indices``.

        Returns ``{index: ChunkAccumulator}`` for every requested index
        present in the ledger; absent indices are simply missing from
        the result.  Found and absent indices count toward
        ``chunk_hits`` / ``chunk_misses``.  A corrupt or type-invalid
        ledger file is an all-miss (and is healed by the next
        :meth:`put_chunks`).
        """
        wanted = list(indices)
        stored = self._load_ledger(
            self.ledger_path(key), int(key["chunk_size"])
        )
        found = {i: stored[i] for i in wanted if i in stored}
        self.chunk_hits += len(found)
        self.chunk_misses += len(wanted) - len(found)
        if metrics.active() is not None:
            metrics.counter(
                "repro_cache_requests_total", kind="chunk", result="hit"
            ).inc(len(found))
            metrics.counter(
                "repro_cache_requests_total", kind="chunk", result="miss"
            ).inc(len(wanted) - len(found))
        return found

    def put_chunks(
        self, key: dict, chunks: dict[int, ChunkAccumulator]
    ) -> pathlib.Path:
        """Merge ``chunks`` (``{index: accumulator}``) into the ledger.

        Values may be :class:`~repro.engine.runner.ChunkAccumulator`
        instances or plain triples — both are normalised before writing.
        Existing entries are kept (they are bit-identical to
        whatever a re-computation would produce, by the reproducibility
        contract); the merged ledger is rewritten through the same
        atomic-rename discipline as :meth:`put`.  Returns the ledger
        path.

        Concurrency: the read-merge-rewrite is not locked, so two
        processes extending the same configuration simultaneously can
        each persist a merge that lacks the other's newest chunks
        (last writer wins).  That never affects correctness — a dropped
        entry just recomputes bit-identically on the next run — it only
        weakens the no-resampling guarantee, which assumes one writer
        per configuration at a time (as the orchestrators provide).
        """
        path = self.ledger_path(key)
        chunk_size = int(key["chunk_size"])
        merged = self._load_ledger(path, chunk_size)
        fresh = {
            int(index): as_accumulator(value, chunk_size)
            for index, value in chunks.items()
            if int(index) not in merged
        }
        merged.update(fresh)
        payload = {
            "key": key,
            "version": LEDGER_VERSION,
            "chunks": {
                str(i): list(merged[i].as_triple()) for i in sorted(merged)
            },
        }
        descriptor, temp_name = tempfile.mkstemp(
            dir=self.directory, suffix=".tmp"
        )
        try:
            with os.fdopen(descriptor, "w") as handle:
                handle.write(json.dumps(payload, indent=2) + "\n")
            os.replace(temp_name, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(temp_name)
            raise
        self.chunk_stores += len(fresh)
        if fresh:
            metrics.counter(
                "repro_cache_stores_total", kind="chunk"
            ).inc(len(fresh))
        return path

    # -- statistics ----------------------------------------------------

    def stats(self) -> dict:
        """Traffic counters for this cache *instance* (not the directory).

        ``hit_rate`` is over lookups (``get`` calls) only and ``None``
        before the first lookup — orchestrators print it in their run
        footers, so it must distinguish "no traffic" from "0% hits".
        """
        lookups = self.hits + self.misses
        chunk_lookups = self.chunk_hits + self.chunk_misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "lookups": lookups,
            "hit_rate": (self.hits / lookups) if lookups else None,
            "chunk_hits": self.chunk_hits,
            "chunk_misses": self.chunk_misses,
            "chunk_stores": self.chunk_stores,
            "chunk_lookups": chunk_lookups,
            "chunk_hit_rate": (
                (self.chunk_hits / chunk_lookups) if chunk_lookups else None
            ),
        }

    @staticmethod
    def _is_real(value) -> bool:
        """A finite JSON number that is not a bool (JSON has no separate
        integer/float estimate fields, but strings and booleans would
        load fine and crash — or silently miscompare — much later)."""
        return (
            isinstance(value, (int, float))
            and not isinstance(value, bool)
            and math.isfinite(value)
        )

    @classmethod
    def _load(cls, path: pathlib.Path) -> dict | None:
        try:
            entry = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        estimate = entry.get("estimate") if isinstance(entry, dict) else None
        if not isinstance(estimate, dict) or not {
            "value",
            "standard_error",
            "trials",
        } <= estimate.keys():
            return None
        # Type-validate the payload: a hand-edited entry (string value,
        # float trials, ...) must count as a corrupt-entry miss here, not
        # crash arithmetic somewhere downstream.
        if not cls._is_real(estimate["value"]) or not cls._is_real(
            estimate["standard_error"]
        ):
            return None
        trials = estimate["trials"]
        if not isinstance(trials, int) or isinstance(trials, bool):
            return None
        if trials < 1 or estimate["standard_error"] < 0:
            return None
        return entry

    @classmethod
    def _load_ledger(
        cls, path: pathlib.Path, chunk_size: int
    ) -> dict[int, ChunkAccumulator]:
        """The validated ``{index: accumulator}`` map of one ledger file.

        Every entry must be a ``[sum_w, sum_w2, trials]`` triple.
        Anything malformed — non-integer indices, bare numbers, triples
        with non-finite moments, negative ``sum_w2``, or a trial count
        other than ``chunk_size`` — degrades to an empty ledger (an
        all-miss): the ledger is as disposable as every other entry.
        """
        try:
            entry = json.loads(path.read_text())
        except (OSError, ValueError):
            return {}
        chunks = entry.get("chunks") if isinstance(entry, dict) else None
        if not isinstance(chunks, dict):
            return {}
        validated: dict[int, ChunkAccumulator] = {}
        for index, stored in chunks.items():
            if not isinstance(index, str) or not index.isdigit():
                return {}
            if not isinstance(stored, list) or len(stored) != 3:
                return {}
            sum_w, sum_w2, trials = stored
            if not cls._is_real(sum_w) or not cls._is_real(sum_w2):
                return {}
            if isinstance(trials, bool) or trials != chunk_size:
                return {}
            if sum_w2 < 0:
                return {}
            validated[int(index)] = ChunkAccumulator(
                float(sum_w), float(sum_w2), chunk_size
            )
        return validated

    def __len__(self) -> int:
        """Estimate entries only (ledger files are not 'points')."""
        return sum(
            1
            for entry in self.directory.glob("*.json")
            if not entry.name.endswith(".ledger.json")
        )


def cache_from_env(default: str | os.PathLike | None = None) -> ResultCache | None:
    """A :class:`ResultCache` at ``$REPRO_SWEEP_CACHE`` (or ``default``).

    Returns ``None`` when neither is set — callers can sprinkle this at
    entry points and get caching exactly when the orchestrator (for
    example ``benchmarks/run_all.py``) opted the process in.
    """
    directory = os.environ.get(CACHE_DIR_ENV) or default
    return ResultCache(directory) if directory else None
