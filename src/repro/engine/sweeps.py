"""Declarative parameter sweeps: grids of scenarios, run as one unit.

Every figure and table in the paper is a *sweep* — settlement error over
grids of adversarial stake α, uniquely-honest fraction p_h/(1−α),
confirmation depth k, and delay bound Δ.  This module is the engine's
fourth layer: a :class:`SweepGrid` names a registered base scenario and
a list of axes, expands their Cartesian product into concrete
:class:`~repro.engine.scenarios.Scenario` points, and :func:`run_grid`
executes every point through :class:`~repro.engine.runner.
ExperimentRunner` — serially, or fanned across a backend the caller
opened (a :class:`~repro.engine.parallel.ProcessBackend`, say), with an
optional
:class:`~repro.engine.cache.ResultCache` whose chunk ledger means no
chunk is ever sampled twice — a rerun samples nothing, and a changed
trial budget samples only the chunks it adds.  Grids may declare
per-point precision targets (``target_se`` / ``rel_se`` /
``max_trials``): the run then goes through the adaptive
:meth:`~repro.engine.runner.ExperimentRunner.run_until` path and rare
cells automatically receive more trials than easy ones.  Estimators
return boolean hit vectors (the hit-count contract of
:mod:`repro.engine.runner`), and the tidy rows carry the hit rate and
its standard error.

Axes come in two kinds:

* **field axes** — any :class:`Scenario` field name (``depth``,
  ``delta``, ``target_slot``, …); the value is applied as a
  ``dataclasses.replace`` override;
* **virtual axes** — ``alpha`` and ``unique_fraction``, the Table 1
  coordinates, which resolve *jointly* to a ``probabilities`` override
  via :func:`repro.core.distributions.from_adversarial_stake`.

Per-point seeding: point ``i`` (in expansion order — the product of the
axes in declared order, last axis fastest) runs with seed
``grid.seed + i``.  The seed is part of the cache key, so reordering or
resizing axes re-keys downstream points — by design: *any* key component
change is a miss.

The registered grids double as the CLI surface: ``python -m repro.sweep
<grid>`` runs any of them (see :mod:`repro.sweep`).
"""

from __future__ import annotations

import dataclasses
import importlib
import itertools
from dataclasses import dataclass

from repro.core.distributions import (
    bernoulli_condition,
    from_adversarial_stake,
)
from repro.engine.cache import ResultCache
from repro.engine.parallel import Backend
from repro.engine.runner import Estimator, ExperimentRunner
from repro.engine.scenarios import PROTOCOL_CHUNK_SIZE, Scenario, get_scenario

__all__ = [
    "SweepGrid",
    "SweepPoint",
    "ESTIMATORS",
    "get_grid",
    "grid_names",
    "register_grid",
    "run_grid",
    "select_points",
]

#: Axes resolved through ``from_adversarial_stake`` instead of a
#: Scenario field.  ``unique_fraction`` requires an ``alpha`` axis (or a
#: fixed ``alpha`` override) — the two only mean anything jointly.
VIRTUAL_AXES = ("alpha", "unique_fraction")

#: Named estimators a grid may reference (``None`` ⇒ the scenario's
#: default: Δ-settlement for reduced scenarios, plain settlement else),
#: as ``(module, function)``.  :meth:`SweepGrid.resolve_estimator`
#: imports the module on use, so importing the sweeps loads no protocol
#: code until a protocol grid runs.
ESTIMATORS: dict[str, tuple[str, str]] = {
    "settlement-violation": ("repro.engine.runner", "settlement_violation"),
    "delta-settlement-violation": (
        "repro.engine.runner",
        "delta_settlement_violation",
    ),
    "protocol-settlement-violation": (
        "repro.engine.protocol",
        "protocol_settlement_violation",
    ),
    "protocol-cp-violation": ("repro.engine.protocol", "protocol_cp_violation"),
    "protocol-deep-reorg": ("repro.engine.protocol", "protocol_deep_reorg"),
}


@dataclass(frozen=True)
class SweepPoint:
    """One expanded grid point: its coordinates, scenario, and seed."""

    index: int
    params: dict
    scenario: Scenario
    seed: int


@dataclass(frozen=True)
class SweepGrid:
    """A declarative parameter grid over a registered base scenario.

    ``axes`` is an ordered tuple of ``(name, values)`` pairs;
    ``overrides`` are fixed scenario-field overrides applied to every
    point (for example a non-default ``probabilities``).  ``estimator``
    names an entry of :data:`ESTIMATORS` or is ``None`` for the
    scenario default.  ``trials`` and ``seed`` are defaults the caller
    (and the CLI) can override at run time.
    """

    name: str
    base: str
    axes: tuple[tuple[str, tuple], ...]
    trials: int
    seed: int
    estimator: str | None = None
    chunk_size: int = 4096
    overrides: tuple[tuple[str, object], ...] = ()
    description: str = ""
    #: Per-point precision targets (the adaptive defaults — any of them
    #: set makes ``run_grid`` run the grid through ``run_until``):
    #: stop each point once its standard error is <= ``target_se``
    #: and/or <= ``rel_se * value``, spending at most ``max_trials``
    #: trials (default: the grid's ``trials`` budget).  Rare cells
    #: automatically receive more trials than easy ones.
    target_se: float | None = None
    rel_se: float | None = None
    max_trials: int | None = None

    def __post_init__(self) -> None:
        if not self.axes:
            raise ValueError("a grid needs at least one axis")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        if self.target_se is not None and not self.target_se > 0:
            raise ValueError("target_se must be positive")
        if self.rel_se is not None and not self.rel_se > 0:
            raise ValueError("rel_se must be positive")
        if self.max_trials is not None and self.max_trials < 1:
            raise ValueError("max_trials must be positive")
        # Normalize axis values to tuples once: a generator passed as an
        # axis would otherwise survive validation and expand to nothing.
        object.__setattr__(
            self,
            "axes",
            tuple((name, tuple(values)) for name, values in self.axes),
        )
        names = [name for name, _ in self.axes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate axis in {names}")
        for name, values in self.axes:
            if not values:
                raise ValueError(f"axis {name!r} has no values")
        if self.estimator is not None and self.estimator not in ESTIMATORS:
            known = ", ".join(sorted(ESTIMATORS))
            raise ValueError(
                f"unknown estimator {self.estimator!r}; known: {known}"
            )

    @property
    def axis_names(self) -> list[str]:
        """Axis names in declared (expansion) order."""
        return [name for name, _ in self.axes]

    def size(self) -> int:
        """Number of points in the grid."""
        size = 1
        for _, values in self.axes:
            size *= len(values)
        return size

    def points(self) -> list[SweepPoint]:
        """Expand the Cartesian product into concrete scenario points."""
        expanded = []
        names = self.axis_names
        for index, combo in enumerate(
            itertools.product(*(values for _, values in self.axes))
        ):
            params = dict(zip(names, combo))
            expanded.append(
                SweepPoint(
                    index=index,
                    params=params,
                    scenario=self._resolve(params),
                    seed=self.seed + index,
                )
            )
        return expanded

    def _resolve(self, params: dict) -> Scenario:
        overrides = dict(self.overrides)
        virtual = {k: overrides.pop(k) for k in VIRTUAL_AXES if k in overrides}
        virtual.update({k: params[k] for k in VIRTUAL_AXES if k in params})
        if "unique_fraction" in virtual and "alpha" not in virtual:
            raise ValueError(
                "a unique_fraction axis needs an alpha axis or a fixed "
                "alpha override"
            )
        if virtual:
            overrides["probabilities"] = from_adversarial_stake(
                virtual["alpha"], virtual.get("unique_fraction", 1.0)
            )
        overrides.update(
            {k: v for k, v in params.items() if k not in VIRTUAL_AXES}
        )
        return get_scenario(self.base, **overrides)

    def resolve_estimator(self) -> Estimator | None:
        """The concrete estimator, or ``None`` for the scenario default."""
        if not self.estimator:
            return None
        module, function = ESTIMATORS[self.estimator]
        return getattr(importlib.import_module(module), function)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------


def select_points(
    grid: SweepGrid, points: list[SweepPoint], only: dict
) -> list[SweepPoint]:
    """Restrict expanded ``points`` to the ``only`` coordinate filter.

    ``only`` maps axis names to collections of admitted values; a point
    survives when every filtered axis takes one of its admitted values.
    The filter runs *after* expansion, so surviving points keep the
    ``index`` and ``seed`` they have in the full grid — a filtered
    debugging run estimates exactly the same numbers (and hits exactly
    the same cache entries) as the full run does for those points.

    Unknown axis names and values that match no point are rejected —
    both would otherwise silently filter everything away.
    """
    for name, values in only.items():
        if name not in grid.axis_names:
            known = ", ".join(grid.axis_names)
            raise ValueError(f"unknown axis {name!r}; grid axes: {known}")
        if not tuple(values):
            raise ValueError(f"empty value filter for axis {name!r}")
    selected = [
        point
        for point in points
        if all(point.params[name] in values for name, values in only.items())
    ]
    if not selected:
        raise ValueError(f"point filter {only!r} matches no grid point")
    return selected


def _row(point: SweepPoint, estimate, report) -> dict:
    """One tidy result row: coordinates, estimate, provenance."""
    return {
        **point.params,
        "value": estimate.value,
        "standard_error": estimate.standard_error,
        "trials": estimate.trials,
        "seed": point.seed,
        "cached": report.from_cache,
        "reused_trials": report.reused_trials,
        "sampled_trials": report.sampled_trials,
    }


def run_grid(
    grid: SweepGrid,
    trials: int | None = None,
    cache: ResultCache | None = None,
    backend: Backend | None = None,
    seed: int | None = None,
    only: dict | None = None,
    target_se: float | None = None,
    rel_se: float | None = None,
    max_trials: int | None = None,
) -> list[dict]:
    """Estimate every point of ``grid``; returns one tidy row per point.

    Rows carry the axis coordinates plus ``value`` / ``standard_error``
    / ``trials`` (realized — fixed budget, or whatever the adaptive
    stopping rule spent) / ``seed`` / ``cached`` (served without any
    sampling) / ``reused_trials`` / ``sampled_trials`` (the chunk-ledger
    split of where the trials came from), in expansion order — ready
    for ``json.dump`` or a CSV writer.

    Every point's chunks run on ``backend`` — *any*
    :class:`~repro.engine.parallel.Backend` the caller opened and
    closes: process pool or
    :class:`~repro.engine.distributed.DistributedBackend` — and
    in-process when ``None``.  Per-point estimates are bit-identical on
    every backend: the runner's per-chunk seed tree does not depend on
    it.

    ``seed`` overrides the grid's base seed (point ``i`` then runs with
    ``seed + i`` — a different seed is a different run and re-keys every
    cache entry).  ``only`` restricts execution to a subset of points by
    axis value (see :func:`select_points`); filtered runs keep the full
    grid's per-point seeds, so their rows — and cache entries — agree
    with the full run.

    ``target_se`` / ``rel_se`` (falling back to the grid's declared
    precision targets) switch every point to the adaptive
    :meth:`~repro.engine.runner.ExperimentRunner.run_until` path: rare
    cells run until their standard error meets the target (up to
    ``max_trials``, default the fixed ``trials`` budget) while easy
    cells stop after the first waves — realized trials vary per row.
    Adaptive points execute in expansion order (chunk waves still fan
    out across the backend); fixed-budget grids keep the fully
    pipelined submit-everything-first dispatch.
    """
    trials = grid.trials if trials is None else trials
    target_se = grid.target_se if target_se is None else target_se
    rel_se = grid.rel_se if rel_se is None else rel_se
    if max_trials is None:
        max_trials = grid.max_trials if grid.max_trials is not None else trials
    if seed is not None:
        grid = dataclasses.replace(grid, seed=seed)
    adaptive = target_se is not None or rel_se is not None
    estimator = grid.resolve_estimator()
    points = grid.points()
    if only:
        points = select_points(grid, points, only)
    runners = [
        ExperimentRunner(
            point.scenario,
            estimator,
            chunk_size=grid.chunk_size,
            cache=cache,
        )
        for point in points
    ]
    if adaptive:
        # Adaptive points are sequential by construction: each wave's
        # stopping decision needs the previous wave's aggregated
        # moments.  Chunk waves still spread across the shared backend.
        rows = []
        for runner, point in zip(runners, points):
            estimate = runner.run_until(
                point.seed,
                target_se=target_se,
                rel_se=rel_se,
                max_trials=max_trials,
                backend=backend,
            )
            rows.append(_row(point, estimate, runner.last_report))
        return rows
    # Submit every point's chunks before collecting anything: on a
    # process backend the pool pipelines across point boundaries, so
    # workers never idle while one point's last chunk finishes.  The
    # serial backend evaluates eagerly through the same code path.
    pending = [
        runner.submit(trials, point.seed, backend)
        for runner, point in zip(runners, points)
    ]
    results = [(p.result(), p.report) for p in pending]
    return [
        _row(point, estimate, report)
        for point, (estimate, report) in zip(points, results)
    ]


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

_GRIDS: dict[str, SweepGrid] = {}


def register_grid(grid: SweepGrid, overwrite: bool = False) -> SweepGrid:
    """Add a grid to the registry (keyed by its name)."""
    if grid.name in _GRIDS and not overwrite:
        raise ValueError(f"grid {grid.name!r} already registered")
    _GRIDS[grid.name] = grid
    return grid


def get_grid(name: str) -> SweepGrid:
    """Look a registered grid up by name."""
    try:
        return _GRIDS[name]
    except KeyError:
        known = ", ".join(sorted(_GRIDS))
        raise KeyError(f"unknown grid {name!r}; registered: {known}")


def grid_names() -> list[str]:
    """Names of all registered grids, sorted."""
    return sorted(_GRIDS)


# Built-in grids — one per paper artefact (see EXPERIMENTS.md "Sweeps").

register_grid(
    SweepGrid(
        name="table1",
        base="iid-settlement",
        axes=(
            ("alpha", (0.10, 0.20, 0.30)),
            ("unique_fraction", (1.0, 0.8, 0.5)),
            ("depth", (10, 20, 40)),
        ),
        trials=100_000,
        seed=1020,
        description=(
            "Table 1 structure (alpha x p_h/(1-alpha) x k) at Monte-Carlo-"
            "resolvable depths; the exact-DP table itself is "
            "examples/generate_table1.py"
        ),
    )
)

register_grid(
    SweepGrid(
        name="stake",
        base="iid-settlement",
        axes=(("alpha", (0.10, 0.20, 0.30)),),
        trials=100_000,
        seed=11,
        overrides=(("depth", 20),),
        description=(
            "adversarial-stake sweep at k = 20, where 100k trials resolve "
            "the violation rate (examples/settlement_security_analysis.py)"
        ),
    )
)

register_grid(
    SweepGrid(
        name="delta",
        base="delta-synchronous",
        axes=(("delta", (0, 2, 4, 8)),),
        trials=1_000,
        seed=12345,
        description=(
            "Theorem 7 delay sweep: (k, Delta)-settlement failure on "
            "rho_Delta-reduced semi-synchronous strings"
        ),
    )
)

register_grid(
    SweepGrid(
        name="protocol",
        base="protocol-split",
        axes=(
            ("adversary_fraction", (0.0, 0.2)),
            ("activity", (0.5, 0.8)),
            ("delta", (0, 2)),
            ("tie_break", ("adversarial", "consistent")),
        ),
        trials=24,
        seed=30303,
        estimator="protocol-deep-reorg",
        chunk_size=PROTOCOL_CHUNK_SIZE,
        description=(
            "protocol-level Theorem 2 ablation: split-attack deep-reorg "
            "rate across stake fraction x activity x Delta x tie-break "
            "rule, executed as batches of full Simulation runs.  The "
            "split attacker spends no corrupted wins, so the stake axis "
            "measures abstention (corrupted slots produce nothing, "
            "thinning honest production), not active adversarial mining"
        ),
    )
)

register_grid(
    SweepGrid(
        name="protocol_wan",
        base="protocol-wan",
        axes=(
            ("topology", ("complete", "star", "ring", "random")),
            ("latency", (0.25, 0.75)),
            ("jitter_scale", (0.0, 0.5)),
        ),
        trials=16,
        seed=51515,
        estimator="protocol-settlement-violation",
        chunk_size=PROTOCOL_CHUNK_SIZE,
        description=(
            "settlement risk on a realistic WAN: gossip topology x "
            "per-link latency x exponential-jitter scale over the "
            "continuous-time Transport (bandwidth-limited links, "
            "max-delay adversary composing its Delta=2 hold on top of "
            "the physical transit).  The slot model cannot express any "
            "point of this grid except the degenerate corner"
        ),
    )
)

register_grid(
    SweepGrid(
        name="bounds-vs-exact",
        base="iid-settlement",
        axes=(("depth", (20, 30, 40)),),
        trials=20_000,
        seed=99,
        overrides=(("probabilities", bernoulli_condition(0.35, 0.3)),),
        description=(
            "Theorem 1 depth sweep: Monte-Carlo violation rate at the "
            "depths the exact DP and Bound 1 are compared on"
        ),
    )
)
