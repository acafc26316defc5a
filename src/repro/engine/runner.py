"""Chunked scenario execution: ExperimentRunner and Estimate aggregation.

The runner is the engine's third layer: it takes a declarative
:class:`repro.engine.scenarios.Scenario`, an *estimator* (a callable
mapping one sampled :class:`~repro.engine.scenarios.Batch` to a boolean
per-trial hit vector), and executes the requested number of trials in
fixed-size chunks.

Hit-count contract
------------------

Every chunk reduces to one ``int``: the number of trials in it whose
event occurred.  Chunk workers return it, the chunk ledger stores it,
the distributed wire carries it, waves add it up, and
:func:`estimate_from_hits` turns a total into an :class:`Estimate`.
A chunk result that crosses a process or host boundary is checked on
arrival — an ``int`` (not a ``bool``) within ``[0, size]`` — before it
is added or ledgered.

Reproducibility contract
------------------------

For an integer ``seed`` the run is bit-reproducible and **independent of
the execution backend**: the trial count is partitioned into chunks of
``chunk_size`` (last chunk ragged), a ``numpy.random.SeedSequence(seed)``
is spawned into one child per chunk, and chunk ``i`` is always sampled
from ``default_rng(child_i)`` — whether the chunks run in-process
(``backend=None``) or on a caller-owned ``backend=ProcessBackend(n)``
of any size.  Per-chunk hit counts are therefore bit-identical
between serial and parallel runs, and so are the aggregated
:class:`Estimate` values.  (Changing ``chunk_size`` re-partitions the
trial stream and changes individual samples — the estimate remains
statistically identical, but not bit-identical.)

Because spawned children form a *prefix-stable* stream (child ``i`` is
``SeedSequence(seed, spawn_key=(i,))`` no matter how many children a
run spawns), ``trials`` is just a prefix length of one infinite chunk
stream.  The runner exploits this through the cache's **chunk ledger**,
the cache's only granularity: every chunk's hit count is stored
under ``(scenario, estimator, seed, chunk_size)`` and keyed by
``(chunk_index, size)``, so an identical rerun samples nothing and
extending a run (say 10k → 50k trials) samples only the chunks the
ledger lacks — everything else is reused bit-identically.  The ragged
remainder is ledgered under its own size: a shorter chunk drawn from
the same child consumes its generator in different phase widths, so
its hits are not a prefix of the full chunk's, and only a run that
ends on the same ragged remainder reuses it.

:meth:`ExperimentRunner.run_until` adds **adaptive precision
targeting** on top of the same chunk stream: waves of full chunks are
dispatched (doubling per wave) until the estimate's standard error
meets ``target_se`` / ``rel_se`` or ``max_trials`` is exhausted.  The
stopping decision is evaluated only at wave boundaries on the
aggregated hit count, so the realized trial count is a deterministic
function of ``(seed, stopping rule)`` — identical for every backend and
worker count, and fully ledger-cacheable.

Both modes resolve chunks through one path: a *wave* of chunk indices is
looked up in the ledger, the missing chunks are dispatched to the
backend, collected, summed into one hit count, and the new chunks are
written back.  A fixed budget is a single wave over its whole
partition; :meth:`ExperimentRunner.run_until` loops waves.
Seeds are integers: a ``numpy.random.Generator`` cannot be replayed
chunk by chunk and is rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.engine import kernels
from repro.engine.scenarios import Batch, Scenario
from repro.obs import metrics
from repro.obs.trace import span

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.engine.cache import ResultCache
    from repro.engine.parallel import Backend

#: An estimator maps (scenario, batch) to a boolean per-trial hit vector.
Estimator = Callable[[Scenario, Batch], np.ndarray]


@dataclass(frozen=True)
class Estimate:
    """A Monte-Carlo estimate with its standard error."""

    value: float
    standard_error: float
    trials: int

    def within(self, target: float, sigmas: float = 4.0) -> bool:
        """Is ``target`` within ``sigmas`` standard errors of the estimate?

        A zero ``standard_error`` only leaves the ``1e-12`` slack, so an
        estimate must never report ``se == 0`` for a sample that carries
        genuine uncertainty: :func:`estimate_from_hits`, which makes
        every :class:`Estimate` of the engine, Laplace-smooths the
        all-hit/all-miss boundary.
        """
        slack = sigmas * self.standard_error + 1e-12
        return abs(self.value - target) <= slack


def estimate_from_hits(hits: int, trials: int) -> Estimate:
    """Wrap a Bernoulli hit count in an :class:`Estimate`.

    ``trials`` must be positive — merging an *empty* partial result (for
    example a cache shard that contributed no trials) is a caller bug and
    raises instead of fabricating a 0/0 estimate.

    At the boundary ``hits ∈ {0, trials}`` the plug-in standard error
    ``sqrt(p(1−p)/n)`` collapses to zero, which would make
    :meth:`Estimate.within` accept only targets within ``1e-12`` — a
    false *positive* for "the estimate resolves the target" whenever the
    true probability is merely below the sampling resolution.  We instead
    report the Laplace-smoothed error ``sqrt(p̃(1−p̃)/n)`` with
    ``p̃ = (hits+1)/(trials+2)`` (≈ ``1/n`` at the boundary, the same
    scale as the rule-of-three bound), so boundary estimates advertise
    their genuine ``O(1/n)`` uncertainty.
    """
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    if not 0 <= hits <= trials:
        raise ValueError(f"hits = {hits} outside [0, {trials}]")
    rate = hits / trials
    if hits == 0 or hits == trials:
        smoothed = (hits + 1.0) / (trials + 2.0)
        se = math.sqrt(smoothed * (1.0 - smoothed) / trials)
    else:
        se = math.sqrt(rate * (1.0 - rate) / trials)
    return Estimate(rate, se, trials)


# ----------------------------------------------------------------------
# Built-in estimators
# ----------------------------------------------------------------------


def settlement_violation(scenario: Scenario, batch: Batch) -> np.ndarray:
    """``μ_x(y) ≥ 0`` at suffix length exactly ``depth`` (Fact 6 / Lemma 1).

    The per-batch indicator behind Table 1: for synchronous scenarios the
    sampled width is ``|x| + depth``, so the final joint state *is* the
    read-out at the checkpoint.
    """
    _rho, mu = kernels.joint_final_states(
        batch.symbols, batch.start_columns, batch.initial_reaches
    )
    return mu >= 0


def delta_settlement_violation(scenario: Scenario, batch: Batch) -> np.ndarray:
    """(k, Δ)-settlement failure on reduced strings (Definition 23 via Lemma 1).

    A row is a violation when its reduced margin is non-negative at *some*
    suffix length ≥ ``depth`` — the batched complement of
    :func:`repro.delta.settlement.is_k_delta_settled`.  Rows whose target
    slot was empty (start column ``−1``) are vacuously settled.
    """
    starts = batch.start_columns
    margins = kernels.margin_trajectories(
        batch.symbols, np.maximum(starts, 0), batch.initial_reaches
    )
    columns = np.arange(margins.shape[1])[None, :]
    in_window = (columns >= (starts + scenario.depth)[:, None]) & (
        columns <= batch.lengths[:, None]
    )
    violated = ((margins >= 0) & in_window).any(axis=1)
    return violated & (starts >= 0)


@dataclass(frozen=True)
class _CatalanWindow:
    """Estimator body: no slot of ``mask`` set in the 1-indexed window
    ``[window_start, window_start + window_length)``, evaluated on the
    whole sampled string (boundary effects included, as in the scalar
    estimators).  A frozen dataclass rather than a closure so instances
    pickle across process-pool workers and fingerprint deterministically
    for the result cache; subclasses supply only the mask kernel."""

    window_start: int
    window_length: int

    def __post_init__(self) -> None:
        # A start below 1 would silently slice an empty (or wrapped)
        # window and report probability 1.
        if self.window_start < 1:
            raise ValueError(
                f"window_start must be >= 1, got {self.window_start}"
            )
        if self.window_length < 1:
            raise ValueError(
                f"window_length must be >= 1, got {self.window_length}"
            )

    def __call__(self, scenario: Scenario, batch: Batch) -> np.ndarray:
        mask = self.mask(batch.symbols)
        start = self.window_start
        window = mask[:, start - 1 : start - 1 + self.window_length]
        return ~window.any(axis=1)


class NoUniqueCatalanInWindow(_CatalanWindow):
    """Estimator: no uniquely honest Catalan slot in the window (the
    event of Bound 1)."""

    @staticmethod
    def mask(symbols: np.ndarray) -> np.ndarray:
        return kernels.uniquely_honest_catalan_mask(symbols)


class NoConsecutiveCatalanInWindow(_CatalanWindow):
    """Estimator: no two consecutive Catalan slots starting in the window
    (the event of Bound 2)."""

    @staticmethod
    def mask(symbols: np.ndarray) -> np.ndarray:
        return kernels.consecutive_catalan_mask(symbols)


# ----------------------------------------------------------------------
# Chunk execution primitives (one chunk is one backend task)
# ----------------------------------------------------------------------


def chunk_sizes(trials: int, chunk_size: int) -> list[int]:
    """The deterministic chunk partition of a run.

    ``trials // chunk_size`` full chunks followed by one ragged
    remainder — the partition (and hence the spawned seed tree) is a pure
    function of ``(trials, chunk_size)``.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    full, remainder = divmod(trials, chunk_size)
    return [chunk_size] * full + ([remainder] if remainder else [])


def is_hit_count(value, size: int) -> bool:
    """Is ``value`` a possible hit count of a ``size``-trial chunk?

    An ``int`` that is not a ``bool``, within ``[0, size]``: the one
    test a chunk result passes wherever it comes from — a backend's
    reply (another process or host) or a ledger record.
    """
    return (
        isinstance(value, int)
        and not isinstance(value, bool)
        and 0 <= value <= size
    )


def run_chunk(
    scenario: Scenario,
    estimator: Estimator,
    size: int,
    seed_sequence: np.random.SeedSequence,
) -> int:
    """Sample and evaluate one chunk; returns its hit count.

    Top-level (picklable) on purpose: the runner submits every chunk to
    its backend as the task ``submit_task(run_chunk, scenario,
    estimator, size, seed_sequence)``, which may run it in another
    process or on another host.  Each chunk owns a fresh generator
    built from its spawned ``SeedSequence`` child, so the result is
    independent of where and in which order the chunk executes.  The estimator must return a boolean vector of one entry
    per trial; anything else raises ``ValueError``.
    """
    with span("runner.chunk", size=size, scenario=scenario.name):
        generator = np.random.default_rng(seed_sequence)
        batch = scenario.sample_batch(size, generator)
        hits = np.asarray(estimator(scenario, batch))
        if hits.dtype != np.bool_ or hits.shape != (size,):
            raise ValueError(
                "estimator must return one bool per trial, got "
                f"{hits.dtype} of shape {hits.shape} for chunk of {size}"
            )
        return int(np.count_nonzero(hits))


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------


def _record_report(report: "RunReport") -> None:
    """Mirror one resolved run's :class:`RunReport` into the metrics
    registry (no-op while metrics are disabled).  Write-only telemetry:
    nothing here feeds back into estimates, keys, or ledgers."""
    if metrics.active() is None:
        return
    metrics.counter(
        "repro_runner_trials_total", "trials by origin", source="sampled"
    ).inc(report.sampled_trials)
    metrics.counter(
        "repro_runner_trials_total", source="ledger"
    ).inc(report.reused_trials)
    metrics.counter(
        "repro_runner_chunks_total", "chunks by origin", source="sampled"
    ).inc(report.sampled_chunks)
    metrics.counter(
        "repro_runner_chunks_total", source="ledger"
    ).inc(report.reused_chunks)
    metrics.counter(
        "repro_runner_runs_total",
        "resolved runs by whether anything was sampled (hit: nothing)",
        cache="hit" if report.from_cache else "miss",
    ).inc()


@dataclass(frozen=True)
class RunReport:
    """Where one resolved run's trials came from.

    ``reused_trials`` were served from ledgered chunks and
    ``sampled_trials`` were freshly computed; the two always sum to the
    realized trial count.  ``from_cache`` is true when *nothing* was
    sampled.  The sweep layer copies these numbers into its tidy rows,
    which is how the CLI's realized-trials and ledger-reuse columns are
    fed.
    """

    trials: int
    reused_trials: int
    sampled_trials: int
    reused_chunks: int
    sampled_chunks: int
    waves: int
    from_cache: bool

    @classmethod
    def of_waves(cls, trials: int, waves: list["_Wave"]) -> "RunReport":
        """The report of a run of ``trials`` resolved through ``waves``."""
        sampled = sum(wave.sampled_trials for wave in waves)
        return cls(
            trials=trials,
            reused_trials=trials - sampled,
            sampled_trials=sampled,
            reused_chunks=sum(len(wave.reused) for wave in waves),
            sampled_chunks=sum(len(wave.futures) for wave in waves),
            waves=len(waves),
            from_cache=sampled == 0,
        )


@dataclass
class _Wave:
    """A range of chunk indices, resolved against the ledger and
    dispatched by :meth:`ExperimentRunner._dispatch`.

    ``reused`` holds the ledgered chunks and ``futures`` the in-flight
    rest, both keyed by chunk index.  ``trials`` is the budget whose
    partition the indices belong to: it fixes each chunk's size.
    """

    runner: "ExperimentRunner"
    indices: range
    trials: int
    ledger_key: dict | None
    reused: dict[int, int]
    futures: dict[int, object]

    def size(self, index: int) -> int:
        """The trial count of chunk ``index`` in the partition."""
        chunk_size = self.runner.chunk_size
        return min(chunk_size, self.trials - index * chunk_size)

    @property
    def sampled_trials(self) -> int:
        return sum(self.size(index) for index in self.futures)

    def collect(self) -> int:
        """Block on the futures, check and ledger the fresh chunks; the
        wave's total hit count."""
        fresh = {}
        for index, future in self.futures.items():
            hits, size = future.result(), self.size(index)
            if not is_hit_count(hits, size):
                raise ValueError(
                    f"chunk {index} of {size} trials returned {hits!r}, "
                    "not a hit count"
                )
            fresh[index, size] = hits
        if self.ledger_key is not None and fresh:
            self.runner.cache.put_chunks(self.ledger_key, fresh)
        return sum(self.reused.values()) + sum(fresh.values())


@dataclass
class PendingEstimate:
    """A dispatched fixed-budget run: resolves to an :class:`Estimate`.

    Produced by :meth:`ExperimentRunner.submit`.  :meth:`result`
    collects the run's one wave (which ledgers its fresh chunks) and
    aggregates.
    """

    runner: "ExperimentRunner"
    trials: int
    wave: _Wave
    _resolved: Estimate | None = None
    report: RunReport | None = None

    @property
    def from_cache(self) -> bool:
        """True when the wave dispatched nothing: every chunk was
        ledgered."""
        return not self.wave.futures

    def result(self) -> Estimate:
        """Block until every submitted chunk is done; the aggregate."""
        if self._resolved is None:
            with span(
                "runner.run",
                scenario=self.runner.scenario.name,
                trials=self.trials,
                submitted=len(self.wave.futures),
            ):
                self._resolved = estimate_from_hits(
                    self.wave.collect(), self.trials
                )
            self.report = RunReport.of_waves(self.trials, [self.wave])
            _record_report(self.report)
        self.runner.last_report = self.report
        return self._resolved


def _serial_if_none(backend: "Backend | None") -> "Backend":
    """``backend``, or an in-process serial backend when ``None``."""
    if backend is not None:
        return backend
    from repro.engine.parallel import SerialBackend

    return SerialBackend()


def _require_integer_seed(seed) -> None:
    if isinstance(seed, np.random.Generator):
        raise ValueError(
            "runs need an integer seed: chunk i is replayed from child i "
            "of SeedSequence(seed), which a Generator cannot provide"
        )


class ExperimentRunner:
    """Execute a scenario against an estimator with chunked batching.

    ``chunk_size`` bounds peak memory (a chunk materialises a
    ``(chunk, horizon)`` symbol matrix plus the estimator's temporaries);
    the default keeps chunks comfortably inside cache for typical
    horizons while amortising NumPy dispatch.

    Where the chunks run is the caller's choice, made per run: every
    run method takes a ``backend`` (a
    :class:`repro.engine.parallel.Backend` the caller opened and
    closes), and ``None`` means an in-process
    :class:`~repro.engine.parallel.SerialBackend`.  The runner never
    opens or closes a pool.  Because every chunk is seeded from its own
    spawned ``SeedSequence`` child, the returned :class:`Estimate` is
    identical on every backend (see the module docstring).

    ``cache`` is an optional :class:`repro.engine.cache.ResultCache`;
    when set, every chunk is looked up in the chunk ledger of
    ``(scenario, estimator, seed, chunk_size)`` before it is sampled,
    and every freshly sampled chunk is appended to it after.
    """

    def __init__(
        self,
        scenario: Scenario,
        estimator: Estimator | None = None,
        chunk_size: int = 4096,
        cache: "ResultCache | None" = None,
    ) -> None:
        if chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        self.scenario = scenario
        self.estimator = estimator or self._default_estimator(scenario)
        self.chunk_size = chunk_size
        self.cache = cache
        #: The :class:`RunReport` of the most recently resolved run on
        #: this runner (``None`` before the first); orchestrators read
        #: it to fill their realized-trials / ledger-reuse columns.
        self.last_report: RunReport | None = None

    @staticmethod
    def _default_estimator(scenario: Scenario) -> Estimator:
        # A scenario may supply its own default (the protocol workloads
        # of repro.engine.protocol do); analytical scenarios fall back
        # to the settlement pair.
        factory = getattr(scenario, "default_estimator", None)
        if factory is not None:
            return factory()
        return (
            delta_settlement_violation
            if scenario.reduced
            else settlement_violation
        )

    def _ledger_key(self, seed: int) -> dict | None:
        """The chunk-ledger key of this runner at ``seed`` (``None``
        without a cache).  Built once per run: every wave of the run
        shares the key object, so the cache hashes it once."""
        if self.cache is None:
            return None
        return self.cache.ledger_key(
            self.scenario, self.estimator, seed, self.chunk_size
        )

    def _dispatch(
        self,
        seed: int,
        indices: range,
        trials: int,
        backend: "Backend",
        ledger_key: dict | None,
    ) -> _Wave:
        """The one path from chunk indices to hit counts, first half.

        Looks every chunk of ``indices`` up in the chunk ledger of
        ``ledger_key`` (from :meth:`_ledger_key`) by ``(index, size)``
        and submits each of the rest to ``backend`` as one
        :func:`run_chunk` task on its own ``SeedSequence(seed)`` child;
        :meth:`_Wave.collect` is the second half.  ``trials`` is the
        budget whose partition the indices come from.
        """
        wave = _Wave(
            self, indices, trials, ledger_key, reused={}, futures={}
        )
        if ledger_key is not None:
            wave.reused = self.cache.get_chunks(
                wave.ledger_key, {index: wave.size(index) for index in indices}
            )
        for index in indices:
            if index not in wave.reused:
                wave.futures[index] = backend.submit_task(
                    run_chunk,
                    self.scenario,
                    self.estimator,
                    wave.size(index),
                    np.random.SeedSequence(seed, spawn_key=(index,)),
                )
        return wave

    def run(
        self,
        trials: int,
        seed: int,
        backend: "Backend | None" = None,
    ) -> Estimate:
        """Run ``trials`` trials and aggregate into an :class:`Estimate`.

        The chunks run on ``backend`` (in-process when ``None``).
        """
        if trials < 1:
            raise ValueError("trials must be positive")
        return self.submit(trials, seed, backend).result()

    def submit(
        self, trials: int, seed: int, backend: "Backend | None" = None
    ) -> PendingEstimate:
        """Dispatch a run to ``backend`` (in-process when ``None``)
        without waiting for it.

        The run is one wave over its whole partition, looked up in the
        ledger immediately: ledgered chunks are reused bit-identically
        (the prefix property) and only the missing ones are submitted.
        The returned :class:`PendingEstimate` aggregates — and appends
        the fresh chunks to the ledger — when
        :meth:`~PendingEstimate.result` is called.  Submitting many runs
        before collecting any result is what keeps pool workers busy
        across sweep-point boundaries.
        """
        if trials < 1:
            raise ValueError("trials must be positive")
        _require_integer_seed(seed)
        chunks = len(chunk_sizes(trials, self.chunk_size))
        wave = self._dispatch(
            seed,
            range(chunks),
            trials,
            _serial_if_none(backend),
            self._ledger_key(seed),
        )
        return PendingEstimate(self, trials, wave)

    def run_until(
        self,
        seed: int,
        *,
        target_se: float | None = None,
        rel_se: float | None = None,
        max_trials: int,
        initial_chunks: int = 4,
        backend: "Backend | None" = None,
    ) -> Estimate:
        """Run until the standard-error target is met (or the budget is).

        The adaptive mode of the chunk-stream contract: full chunks are
        dispatched in **waves** — ``initial_chunks`` first, then the
        total at most doubles each wave, clipped to the *projected*
        requirement ``n · (se / target)²`` from the current aggregate
        (so a point that clearly needs 1.3× more trials does not jump
        to 2×) — and after every wave the aggregated estimate is
        checked against the stopping rule:

        * ``target_se`` — stop once ``standard_error <= target_se``;
        * ``rel_se`` — stop once ``standard_error <= rel_se * value``
          (checked only when ``value > 0``; an all-miss estimate cannot
          certify a relative error).

        At least one of the two must be given; either alone or both
        together (stop at the first that holds).  When every full chunk
        under ``max_trials`` is spent and the target is still unmet, the
        ragged remainder runs as a last wave and the final estimate — at
        exactly ``max_trials`` trials, bit-identical to
        ``run(max_trials, seed)`` — is returned regardless.

        Because per-chunk hit counts are backend-independent and each
        wave's size is a pure function of the aggregated hits so far
        (which are themselves bit-identical on every backend) plus
        ``(chunk_size, initial_chunks, max_trials)``, the realized
        trial count is a deterministic function of
        ``(seed, stopping rule)``: every backend, at any worker count,
        returns bit-identical estimates with identical trial counts.
        Every wave goes through the same ledger path as a fixed-budget
        run — a warm adaptive rerun samples nothing, and a later
        ``run(realized_trials, seed)`` reuses every chunk.
        """
        if target_se is None and rel_se is None:
            raise ValueError("run_until needs target_se and/or rel_se")
        if target_se is not None and not target_se > 0:
            raise ValueError(f"target_se must be positive, got {target_se}")
        if rel_se is not None and not rel_se > 0:
            raise ValueError(f"rel_se must be positive, got {rel_se}")
        if max_trials < 1:
            raise ValueError("max_trials must be positive")
        if initial_chunks < 1:
            raise ValueError("initial_chunks must be positive")
        _require_integer_seed(seed)

        def met(estimate: Estimate) -> bool:
            if (
                target_se is not None
                and estimate.standard_error <= target_se
            ):
                return True
            return (
                rel_se is not None
                and estimate.value > 0
                and estimate.standard_error <= rel_se * estimate.value
            )

        full_max = max_trials // self.chunk_size
        chunks = len(chunk_sizes(max_trials, self.chunk_size))
        hits = 0
        waves: list[_Wave] = []
        estimate: Estimate | None = None
        done = 0
        active = _serial_if_none(backend)
        ledger_key = self._ledger_key(seed)
        while done < chunks and (estimate is None or not met(estimate)):
            if done == full_max:
                # Every full chunk is spent: the ragged remainder
                # tops the run up to exactly max_trials.
                goal = chunks
            elif done == 0:
                goal = min(full_max, initial_chunks)
            else:
                # The largest active threshold at the current value
                # is the easiest target to meet; project the trials
                # needed to reach it from the aggregate so far, and
                # grow by at most 2x but never (knowingly) past the
                # projection.
                threshold = max(
                    target_se if target_se is not None else 0.0,
                    rel_se * estimate.value if rel_se is not None else 0.0,
                )
                if threshold > 0:
                    projected = math.ceil(
                        estimate.trials
                        * (estimate.standard_error / threshold) ** 2
                        / self.chunk_size
                    )
                else:  # rel-only rule while value == 0: no signal yet
                    projected = 2 * done
                goal = min(
                    full_max, max(done + 1, min(2 * done, projected))
                )
            with span(
                "runner.wave",
                scenario=self.scenario.name,
                wave=len(waves),
                chunks=goal - done,
            ):
                wave = self._dispatch(
                    seed, range(done, goal), max_trials, active, ledger_key
                )
                hits += wave.collect()
                waves.append(wave)
                estimate = estimate_from_hits(
                    hits, min(goal * self.chunk_size, max_trials)
                )
            done = goal
            metrics.gauge(
                "repro_runner_standard_error",
                "SE trajectory of the current adaptive run",
            ).set(estimate.standard_error)
        self.last_report = RunReport.of_waves(estimate.trials, waves)
        _record_report(self.last_report)
        return estimate


def run_scenario(
    name: str,
    trials: int,
    seed: int,
    estimator: Estimator | None = None,
    chunk_size: int = 4096,
    cache: "ResultCache | None" = None,
    backend: "Backend | None" = None,
    **overrides,
) -> Estimate:
    """One-call convenience: look up, override, run.

    ``run_scenario("iid-settlement", 100_000, seed=7, depth=200)`` is the
    whole Monte-Carlo pipeline for a Table 1 cell; pass
    ``backend=ProcessBackend(8)`` (opened and closed by the caller) to
    fan the chunks across cores (same estimate, less wall-clock).
    """
    from repro.engine.scenarios import get_scenario

    scenario = get_scenario(name, **overrides)
    runner = ExperimentRunner(scenario, estimator, chunk_size, cache)
    return runner.run(trials, seed, backend)
