"""Offline settlement-table builder (the oracle's layer-6 back end).

The paper's operational question — *how deep must a block be before
settlement fails with probability ≤ 10⁻ˣ?* — is a pure function of four
coordinates: adversarial stake α, uniquely-honest fraction
p_h / (1 − α), delay bound Δ, and confirmation depth k.  This module
precomputes dense grids of answers so the query service
(:mod:`repro.oracle.service`) can respond at memory speed:

* ``forward``  — ``(α, fraction, Δ, k) → Pr[k-settlement violation]``;
* ``minimal_depth`` — ``(α, fraction, Δ, target) →`` the one depth a
  cell serves: ``min { k : Pr[violation at k] ≤ target }`` when the DP
  reaches the target within the spec's depth horizon; else the smallest
  k whose *certified* Theorem 1 upper bound (Bound 1's dominating series
  with the stationary prefix correction, summed through
  :func:`repro.analysis.genfunc.probability_tail`) meets it, searched
  ``8×`` past the horizon; ``−1`` when neither does.  The bound
  dominates the exact DP, and every build checks that no certified
  depth undercuts the DP's, so a depth past the horizon is exactly a
  certified one — the query service labels it ``source = "analytic"``.

Both tables are read off **one** exact Section 6.6 DP sweep per
(α, fraction, Δ) combination to the depth horizon, so a forward cell
is within the last ulp of a per-k ``settlement_violation_probability``
run, not bit-identical: the DP band depends on the horizon (see
:mod:`repro.analysis.exact`).

Δ handling: the slot distribution is the active-slot composition
``from_adversarial_stake(α, fraction)`` thinned to activity ``f``
(:func:`effective_probabilities`), pushed through the Proposition 4
reduction ``ρ_Δ`` — the same conservative surgery the Δ-synchronous
analysis layer uses — so the synchronous DP applies verbatim.  Larger
Δ, larger α, and smaller fraction all produce stochastically dominated
strings, which is exactly the monotonicity the service's conservative
rounding relies on (property-tested in
``tests/analysis/test_monotonicity.py``).

Cross-validation rides the sweep engine: every ``mc_depths`` cell is
also Monte-Carlo estimated through :func:`repro.engine.sweeps.run_grid`
— on whatever backend the caller passes (a
:class:`~repro.engine.parallel.ProcessBackend`, say) and stored in a
:class:`~repro.engine.cache.ResultCache` — and the estimate must agree
with the exact DP within 6 standard errors.  A rebuild against a warm
cache therefore re-*checks* everything while re-*estimating* nothing,
and a rebuild into a directory whose manifest fingerprint matches the
spec is a complete no-op (see :mod:`repro.oracle.store`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.analysis import genfunc
from repro.analysis.exact import compute_settlement_probabilities
from repro.core.distributions import (
    SlotProbabilities,
    from_adversarial_stake,
    semi_synchronous_condition,
)
from repro.delta.reduction import reduced_probabilities

if TYPE_CHECKING:
    from repro.engine.cache import ResultCache
    from repro.engine.parallel import Backend
    from repro.engine.sweeps import SweepGrid

__all__ = [
    "ANALYTIC_HORIZON_FACTOR",
    "OracleSpec",
    "OracleTables",
    "BuildReport",
    "DEFAULT_SPEC",
    "TINY_SPEC",
    "build_tables",
    "effective_probabilities",
]

#: The certified-bound search sweeps to this multiple of the DP depth
#: horizon.  The bound is a series tail (no DP grid): one coefficient
#: vector per combo, built by doubling from the algebraic fixed point
#: of ``A(Z·D(Z))`` and the reciprocal recurrence — a few milliseconds
#: at ``DEFAULT_SPEC``'s order 1920.  Part of the artifact format
#: (changing it changes the ``minimal_depth`` cells past the DP
#: horizon, which the store's FORMAT_VERSION covers).
ANALYTIC_HORIZON_FACTOR = 8


def effective_probabilities(
    alpha: float,
    unique_fraction: float,
    delta: int,
    activity: float = 1.0,
) -> SlotProbabilities:
    """The synchronous slot law a table cell's DP runs on.

    The active-slot composition is the Table 1 parameterisation
    (``p_A = α·f``, ``p_h = (1 − α)·fraction·f``, remainder multiply
    honest); Δ > 0 pushes it through the Proposition 4 reduction, whose
    output is again synchronous.  ``activity = 1`` (no empty slots)
    short-circuits to ``from_adversarial_stake`` — bit-identical to the
    Table 1 law, with Δ = 0 required.

    Raises ``ValueError`` when the reduced law loses honest majority
    (``p′_A ≥ 1/2``): the stationary initial-reach model X_∞ of the DP
    does not exist there, so the cell cannot be tabulated — lower Δ or
    the activity.
    """
    if activity >= 1.0:
        if delta > 0:
            raise ValueError(
                "delta > 0 needs activity < 1 (the reduction relabels "
                "every honest slot of a fully active string)"
            )
        return from_adversarial_stake(alpha, unique_fraction)
    base = semi_synchronous_condition(
        activity,
        alpha * activity,
        (1.0 - alpha) * unique_fraction * activity,
    )
    reduced = reduced_probabilities(base, delta)
    if reduced.p_adversarial >= 0.5:
        raise ValueError(
            f"reduced law at alpha={alpha}, delta={delta}, "
            f"activity={activity} has p'_A = {reduced.p_adversarial:.4f} "
            ">= 1/2 (no honest majority, X_inf undefined); lower delta "
            "or the activity"
        )
    return reduced


@dataclass(frozen=True)
class OracleSpec:
    """The complete, fingerprintable description of one table build.

    Axes must be strictly increasing (``targets`` strictly decreasing:
    loosest first) so the artifact is canonical — two specs describing
    the same grid serialize identically and fingerprint identically.
    ``mc_trials = 0`` disables the Monte-Carlo cross-check; otherwise
    every ``mc_depths ⊆ depths`` cell is validated.  ``mc_target_se``
    > 0 makes the cross-check *adaptive*: instead of spending the whole
    fixed ``mc_trials`` budget per cell, each cell runs until its
    standard error reaches the requested σ-resolution (``mc_trials``
    then caps the spend) — rare cells sample more, easy cells less, and
    the realized trial counts stay a deterministic function of the spec.
    All fields are part of the artifact fingerprint (see
    :mod:`repro.oracle.store`).
    """

    alphas: tuple[float, ...]
    unique_fractions: tuple[float, ...]
    deltas: tuple[int, ...]
    depths: tuple[int, ...]
    targets: tuple[float, ...]
    activity: float = 1.0
    mc_depths: tuple[int, ...] = ()
    mc_trials: int = 0
    mc_target_se: float = 0.0
    mc_seed: int = 2020
    mc_chunk_size: int = 4096

    def __post_init__(self) -> None:
        for name in ("alphas", "unique_fractions", "deltas", "depths"):
            values = tuple(getattr(self, name))
            object.__setattr__(self, name, values)
            if not values:
                raise ValueError(f"{name} must be non-empty")
            if any(b <= a for a, b in zip(values, values[1:])):
                raise ValueError(f"{name} must be strictly increasing")
        targets = tuple(self.targets)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "mc_depths", tuple(self.mc_depths))
        if not targets:
            raise ValueError("targets must be non-empty")
        if any(b >= a for a, b in zip(targets, targets[1:])):
            raise ValueError("targets must be strictly decreasing")
        if any(not 0.0 < t < 1.0 for t in targets):
            raise ValueError("targets must lie in (0, 1)")
        if any(not 0.0 <= a < 0.5 for a in self.alphas):
            raise ValueError("alphas must lie in [0, 0.5)")
        if any(not 0.0 <= f <= 1.0 for f in self.unique_fractions):
            raise ValueError("unique_fractions must lie in [0, 1]")
        if any(d < 0 for d in self.deltas):
            raise ValueError("deltas must be non-negative")
        if any(k < 1 for k in self.depths):
            raise ValueError("depths must be positive")
        if not 0.0 < self.activity <= 1.0:
            raise ValueError("activity must lie in (0, 1]")
        if self.activity >= 1.0 and any(d > 0 for d in self.deltas):
            raise ValueError("deltas > 0 need activity < 1")
        if self.mc_trials < 0:
            raise ValueError("mc_trials must be non-negative")
        if self.mc_trials and not self.mc_depths:
            raise ValueError("mc_trials > 0 needs mc_depths")
        if self.mc_target_se < 0:
            raise ValueError("mc_target_se must be non-negative")
        if self.mc_seed < 0:
            raise ValueError("mc_seed must be non-negative")
        if self.mc_chunk_size < 1:
            raise ValueError("mc_chunk_size must be positive")
        if self.mc_target_se and not self.mc_trials:
            raise ValueError(
                "mc_target_se > 0 needs mc_trials as its trial ceiling"
            )
        if not set(self.mc_depths) <= set(self.depths):
            raise ValueError("mc_depths must be a subset of depths")
        # Every cell's slot law must exist (honest majority after the
        # reduction) — fail at spec time, not mid-build.
        for alpha in (self.alphas[-1],):
            for delta in self.deltas:
                effective_probabilities(
                    alpha, self.unique_fractions[0], delta, self.activity
                )

    @property
    def shape(self) -> tuple[int, int, int, int]:
        """Forward-table shape ``(|α|, |fraction|, |Δ|, |k|)``."""
        return (
            len(self.alphas),
            len(self.unique_fractions),
            len(self.deltas),
            len(self.depths),
        )

    @property
    def depth_horizon(self) -> int:
        """Largest depth the minimal-k search sweeps to."""
        return max(self.depths)

    def combos(self):
        """Yield ``(i, j, l, alpha, fraction, delta)`` in index order."""
        for i, alpha in enumerate(self.alphas):
            for j, fraction in enumerate(self.unique_fractions):
                for l, delta in enumerate(self.deltas):
                    yield i, j, l, alpha, fraction, delta


@dataclass(frozen=True)
class OracleTables:
    """The built tables: spec plus the two query arrays.

    ``forward[i, j, l, m]`` is the exact violation probability at
    ``(alphas[i], unique_fractions[j], deltas[l], depths[m])`` —
    bit-identical to the combo's DP sweep to ``depth_horizon`` read out
    at ``depths[m]``.  ``minimal_depth[i, j, l, n]`` is the depth served
    for ``targets[n]``: the smallest integer k ≤ ``depth_horizon``
    whose violation probability is ≤ the target; failing that, the
    smallest k whose certified Theorem 1 bound is ≤ the target, searched
    to ``ANALYTIC_HORIZON_FACTOR × depth_horizon`` (always above
    ``depth_horizon``); ``−1`` when neither exists.
    """

    spec: OracleSpec
    forward: np.ndarray
    minimal_depth: np.ndarray

    def __post_init__(self) -> None:
        expected = self.spec.shape
        if tuple(self.forward.shape) != expected:
            raise ValueError(
                f"forward shape {self.forward.shape} != spec shape {expected}"
            )
        depth_shape = expected[:3] + (len(self.spec.targets),)
        if tuple(self.minimal_depth.shape) != depth_shape:
            raise ValueError(
                f"minimal_depth shape {self.minimal_depth.shape} != "
                f"{depth_shape}"
            )


@dataclass(frozen=True)
class BuildReport:
    """What one :func:`build_tables` call did (or skipped)."""

    tables: OracleTables
    rebuilt: bool
    seconds: float
    mc_points: int = 0
    mc_cached: int = 0
    cache_stats: dict | None = None
    manifest_path: str | None = None


# ----------------------------------------------------------------------
# Build workers (top-level: shipped to ProcessBackend workers)
# ----------------------------------------------------------------------


def _dp_rows(
    probabilities: SlotProbabilities,
    depths: tuple[int, ...],
    targets: tuple[float, ...],
) -> tuple[list[float], list[int]]:
    """One combo's forward row and minimal-depth row from one DP sweep.

    The sweep checkpoints every k up to ``max(depths)``: the forward row
    is its read-out at ``depths``, the minimal-depth row the smallest
    checkpoint at or under each target.
    """
    horizon = max(depths)
    computation = compute_settlement_probabilities(
        probabilities, list(range(1, horizon + 1))
    )
    forward = [computation[k] for k in depths]
    row = []
    k = 1
    for target in targets:  # strictly decreasing: minimal k only grows
        while k <= horizon and computation[k] > target:
            k += 1
        row.append(k if k <= horizon else -1)
    return forward, row


def _analytic_depth_row(
    probabilities: SlotProbabilities,
    horizon: int,
    targets: tuple[float, ...],
) -> list[int]:
    """Certified minimal depths via Theorem 1's Bound 1 tail.

    One dominating-series build per combo (Bound 1 with the stationary
    prefix correction), then a binary search per target over
    :func:`~repro.analysis.genfunc.probability_tail`, which is
    non-increasing in k.  Every returned depth k satisfies
    ``bound(k) ≤ target`` and the bound dominates the exact DP, so the
    answer is a *certified upper bound* on the true minimal depth —
    never anti-conservative, merely deeper than strictly necessary.

    Degenerate laws are left uncertified (all ``−1``): ``p_unique = 0``
    makes Bound 1 vacuous, and ``ε ≥ 1`` (no adversary) makes the DP
    itself exact at depth 1, so the fallback would never be consulted.
    """
    epsilon = probabilities.epsilon
    q_unique = probabilities.p_unique
    if not 0.0 < epsilon < 1.0 or q_unique <= 0.0:
        return [-1] * len(targets)
    order = horizon + 320
    series = genfunc.bound1_dominating_series(epsilon, q_unique, order)
    correction = genfunc.stationary_prefix_correction(epsilon, order)
    series = genfunc.series_multiply(correction, series, order)
    row = []
    search_from = 1
    for target in targets:  # strictly decreasing: minimal k only grows
        if genfunc.probability_tail(series, horizon) > target:
            row.extend([-1] * (len(targets) - len(row)))
            break
        low, high = search_from, horizon
        while low < high:
            middle = (low + high) // 2
            if genfunc.probability_tail(series, middle) <= target:
                high = middle
            else:
                low = middle + 1
        row.append(low)
        search_from = low
    return row


def _combo_rows(
    probabilities: SlotProbabilities,
    depths: tuple[int, ...],
    targets: tuple[float, ...],
    analytic_horizon: int,
) -> tuple[list[float], list[int]]:
    """One combo's forward row and served depth row, checked.

    Each served depth is the DP's minimal depth, or, where the DP
    horizon cannot reach the target, the certified Theorem 1 depth.
    The bound dominates the exact DP, so a certified depth ``b ≥ 0``
    may never undercut it: ``b < dp`` where the DP reached the target,
    or ``b ≤ horizon`` where it did not, raises ``RuntimeError``.
    """
    forward, minimal = _dp_rows(probabilities, depths, targets)
    certified = _analytic_depth_row(probabilities, analytic_horizon, targets)
    horizon = max(depths)
    for target, dp, bound in zip(targets, minimal, certified):
        if bound >= 0 and (bound < dp if dp >= 0 else bound <= horizon):
            raise RuntimeError(
                f"certified Theorem 1 depth {bound} undercuts the exact DP "
                f"(depth {dp}, horizon {horizon}) at target {target:g} "
                f"for {probabilities}"
            )
    return forward, [
        dp if dp >= 0 else bound for dp, bound in zip(minimal, certified)
    ]


# ----------------------------------------------------------------------
# The builder
# ----------------------------------------------------------------------


def _mc_grid(
    spec: OracleSpec, combo_index: int, probabilities: SlotProbabilities
) -> SweepGrid:
    """The per-combo Monte-Carlo validation grid (depth axis only)."""
    from repro.engine.sweeps import SweepGrid

    return SweepGrid(
        name=f"oracle-mc-{combo_index}",
        base="iid-settlement",
        axes=(("depth", spec.mc_depths),),
        trials=spec.mc_trials,
        seed=spec.mc_seed + combo_index * len(spec.mc_depths),
        chunk_size=spec.mc_chunk_size,
        overrides=(("probabilities", probabilities),),
    )


def build_tables(
    spec: OracleSpec,
    out_dir=None,
    cache: ResultCache | None = None,
    force: bool = False,
    log=None,
    backend: "Backend | None" = None,
) -> BuildReport:
    """Build (or load) the settlement tables for ``spec``.

    When ``out_dir`` already holds an artifact whose manifest
    fingerprint matches ``spec`` (and ``force`` is false), the build is
    a **no-op**: the artifact is loaded and returned with
    ``rebuilt=False`` — nothing is recomputed, nothing rewritten.

    Otherwise: each (α, fraction, Δ) combo runs one dense DP sweep,
    which fills its forward and minimal-depth rows, and one certified
    analytic row, which fills the DP-unreachable depth cells and must
    dominate the DP (else ``RuntimeError``); then the ``mc_depths``
    cells are Monte-Carlo cross-checked through :func:`run_grid`
    (optional ``cache``; a warm cache serves every point with zero
    re-estimation) and must agree with the DP within 6 standard errors.
    The result is saved to ``out_dir`` when given.

    ``backend`` — any :class:`~repro.engine.parallel.Backend`: a
    process pool or a
    :class:`~repro.engine.distributed.DistributedBackend` — carries both
    the DP task fan-out and the Monte-Carlo cross-check; ``None`` runs
    everything in-process.  The caller keeps ownership:
    ``build_tables`` never opens or closes a pool.  By the chunk
    seed-tree contract the backend choice cannot change a single table
    cell or cross-check estimate.

    ``log`` is an optional ``print``-like callable for build progress
    (the CLI passes ``print``; the default is silent).
    """
    # Local imports: store imports OracleTables, and loading the tables
    # (to serve or query them) needs none of the build machinery.
    from repro.engine.parallel import SerialBackend
    from repro.oracle import store

    emit = log if log is not None else (lambda *_: None)
    start = time.perf_counter()

    if out_dir is not None and not force:
        existing = store.read_manifest(out_dir)
        if (
            existing is not None
            and existing.get("fingerprint") == store.spec_fingerprint(spec)
        ):
            tables = store.load_tables(out_dir)
            emit(
                f"oracle tables at {out_dir} already match spec fingerprint "
                f"{existing['fingerprint'][:16]}...; rebuild is a no-op"
            )
            return BuildReport(
                tables=tables,
                rebuilt=False,
                seconds=time.perf_counter() - start,
                manifest_path=str(store.manifest_path(out_dir)),
            )

    laws = {
        (i, j, l): effective_probabilities(
            alpha, fraction, delta, spec.activity
        )
        for i, j, l, alpha, fraction, delta in spec.combos()
    }
    shape = spec.shape
    forward = np.empty(shape, dtype=np.float64)
    minimal = np.empty(shape[:3] + (len(spec.targets),), dtype=np.int64)
    analytic_horizon = ANALYTIC_HORIZON_FACTOR * spec.depth_horizon

    if backend is None:
        backend = SerialBackend()
    emit(
        f"building {len(laws)} combos: one exact DP sweep to "
        f"k = {spec.depth_horizon} + one analytic row each"
    )
    # Submit everything before collecting anything: on a process
    # backend the tasks pipeline across combo boundaries.
    futures = {
        (i, j, l): backend.submit_task(
            _combo_rows, law, spec.depths, spec.targets, analytic_horizon
        )
        for (i, j, l), law in laws.items()
    }
    for (i, j, l), future in futures.items():
        forward[i, j, l, :], minimal[i, j, l, :] = future.result()
    certified = int((minimal > spec.depth_horizon).sum())
    emit(
        f"certified analytic fallback (horizon {analytic_horizon}) "
        f"covers {certified} of {certified + int((minimal < 0).sum())} "
        "DP-unreachable minimal-depth cells"
    )

    mc_points = mc_cached = 0
    if spec.mc_trials:
        budget = (
            f"SE target {spec.mc_target_se:g}, "
            f"<= {spec.mc_trials} trials/point"
            if spec.mc_target_se
            else f"{spec.mc_trials} trials/point"
        )
        emit(
            f"cross-validating {len(laws)} combos x "
            f"{len(spec.mc_depths)} depths by Monte Carlo ({budget})"
        )
        from repro.engine.runner import Estimate
        from repro.engine.sweeps import run_grid

        depth_index = {k: m for m, k in enumerate(spec.depths)}
        for combo_index, ((i, j, l), law) in enumerate(laws.items()):
            rows = run_grid(
                _mc_grid(spec, combo_index, law),
                backend=backend,
                cache=cache,
                # mc_target_se > 0: the cross-check targets a fixed
                # sigma-resolution per cell instead of a fixed trial
                # count; mc_trials becomes the per-cell ceiling.
                target_se=spec.mc_target_se or None,
            )
            for row in rows:
                mc_points += 1
                mc_cached += bool(row["cached"])
                exact = forward[i, j, l, depth_index[row["depth"]]]
                estimate = Estimate(
                    row["value"], row["standard_error"], row["trials"]
                )
                if not estimate.within(exact, sigmas=6.0):
                    raise RuntimeError(
                        "Monte-Carlo cross-check failed at "
                        f"alpha={spec.alphas[i]}, "
                        f"fraction={spec.unique_fractions[j]}, "
                        f"delta={spec.deltas[l]}, k={row['depth']}: "
                        f"MC {row['value']} +- "
                        f"{row['standard_error']} vs DP {exact}"
                    )

    tables = OracleTables(spec=spec, forward=forward, minimal_depth=minimal)
    stats = cache.stats() if cache is not None else None
    if stats is not None:
        from repro.engine.cache import format_stats

        emit(f"result {format_stats(stats)}")

    manifest_path = None
    if out_dir is not None:
        manifest_path = str(store.save_tables(tables, out_dir))
        emit(f"artifact written to {out_dir}")

    return BuildReport(
        tables=tables,
        rebuilt=True,
        seconds=time.perf_counter() - start,
        mc_points=mc_points,
        mc_cached=mc_cached,
        cache_stats=stats,
        manifest_path=manifest_path,
    )


# ----------------------------------------------------------------------
# Presets
# ----------------------------------------------------------------------

#: Production-shaped grid: Table 1's stake and uniqueness coordinates at
#: a realistic activity (f = 0.05, the deployed Ouroboros value), delay
#: bounds 0–4, depths to 200.  A serial build on a 2-vCPU container took
#: 1.6–2.4 s without the Monte-Carlo cross-check (``mc_trials=0``) and
#: 3.1–3.8 s with it, on a cold cache; ``workers`` scales it down.  The
#: cross-check targets a fixed σ-resolution (adaptive): ``mc_trials`` is
#: the per-cell ceiling, not the spend — easy cells stop as soon as
#: 3×10⁻³ resolution is reached.
DEFAULT_SPEC = OracleSpec(
    alphas=(0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35),
    unique_fractions=(0.25, 0.5, 0.8, 0.9, 1.0),
    deltas=(0, 1, 2, 4),
    depths=(10, 20, 30, 40, 60, 80, 100, 140, 200),
    targets=(1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-8, 1e-10),
    activity=0.05,
    mc_depths=(10, 20),
    mc_trials=32_768,
    mc_target_se=3e-3,
    mc_seed=2020,
)

#: CI / test / benchmark-sized grid: builds in seconds, still exercises
#: every code path (reduction, both table directions, adaptive MC
#: cross-check at a fixed σ-resolution).
TINY_SPEC = OracleSpec(
    alphas=(0.10, 0.20, 0.30),
    unique_fractions=(0.5, 1.0),
    deltas=(0, 2),
    depths=(5, 10, 20, 30),
    targets=(1e-1, 1e-2, 1e-3),
    activity=0.05,
    mc_depths=(5, 10),
    mc_trials=8_192,
    mc_target_se=1e-2,
    mc_seed=2020,
    mc_chunk_size=1024,
)
