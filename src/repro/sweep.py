"""Command-line sweep orchestrator: ``python -m repro.sweep``.

Runs any registered :class:`~repro.engine.sweeps.SweepGrid` and writes a
tidy results table — one row per grid point with its axis coordinates,
the Monte-Carlo estimate, its standard error, and whether the point was
served from the on-disk cache without re-estimation.

Examples::

    python -m repro.sweep --list                 # what can I run?
    python -m repro.sweep table1 --workers 8     # Table 1 grid, 8 cores
    python -m repro.sweep delta --trials 5000 --out delta.json
    python -m repro.sweep stake --cache-dir .sweep-cache   # warm rerun: instant
    python -m repro.sweep table1 --only alpha=0.1 --only depth=10,20
    python -m repro.sweep stake --seed 777       # re-seed the whole grid

Debugging subsets: ``--only axis=v1,v2`` (repeatable) restricts the run
to the matching grid points *after* expansion, so each surviving point
keeps the seed — and cache entry — it has in the full grid.  ``--seed``
replaces the grid's base seed (a different seed is a different run and
re-keys every point).

Caching: pass ``--cache-dir`` (or set ``$REPRO_SWEEP_CACHE``) and every
chunk a point samples is ledgered under ``(scenario, estimator, seed,
chunk_size)``; identical reruns do zero sampling, and a larger
``--trials`` samples only the chunks the ledger lacks.  A different
seed, chunk size, or scenario field is a different key and recomputes
(see ``repro.engine.cache``).  ``REPRO_SWEEP_CACHE=`` (empty) runs
uncached.

Parallelism: ``--workers N`` fans the runner's chunks across ``N``
processes, and ``--hosts host:port,host:port`` across ``python -m
repro.worker`` processes on other machines; with neither the grid runs
serially.  Estimates are bit-identical on every backend — the per-chunk
spawned ``SeedSequence`` tree depends only on ``(seed, trials,
chunk_size)`` — so both flags are purely wall-clock knobs.  They, the
cache flags and ``--trace``/``--metrics`` are shared with ``python -m
repro.oracle build`` through :func:`repro.engine.parallel.open_run`:
``--workers 0``, ``--workers > 1`` beside ``--hosts`` or a path that
cannot be written exits 2 before anything runs.  The summary line
reports the backend that ran and its width (pool size, host count, or
1).  In code, ``run_grid(grid, backend=ProcessBackend(n))`` does the
same, with the pool owned by the caller.

Adaptive precision: ``--target-se`` / ``--rel-se`` switch every point
to the runner's ``run_until`` path — chunk waves are dispatched until
the point's standard error meets the target, spending at most
``--max-trials`` (default: the fixed trial budget).  The ``trials``
column then shows each point's *realized* spend and the ``reused``
column how much of it was served from the chunk ledger; the cache
footer carries the chunk-level counters.  Raising ``--trials`` on a
warm cache re-samples only the new chunks (the ledger's prefix
property) — the old chunks are reused bit-identically.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.engine.cache import format_stats
from repro.engine.parallel import add_run_flags, open_run, unwritable
from repro.engine.sweeps import SweepGrid, get_grid, grid_names, run_grid

__all__ = ["main", "format_table", "parse_only"]


def parse_only(grid: SweepGrid, specs: list[str]) -> dict:
    """Parse repeated ``--only axis=v1,v2`` flags against ``grid``.

    Each token is matched against the axis's *declared* values (so
    ``0.1`` matches the float ``0.1``, ``10`` the int ``10``, and
    ``adversarial`` a string axis value) — the CLI never guesses types.
    Unknown axes or tokens matching no declared value are errors.
    Repeating an axis unions its value lists.
    """
    declared = dict(grid.axes)
    only: dict[str, list] = {}
    for spec in specs:
        axis, separator, rendered = spec.partition("=")
        if not separator or not rendered:
            raise ValueError(
                f"--only expects axis=v1,v2, got {spec!r}"
            )
        if axis not in declared:
            known = ", ".join(grid.axis_names)
            raise ValueError(f"unknown axis {axis!r}; grid axes: {known}")
        values = only.setdefault(axis, [])
        for token in rendered.split(","):
            matches = [
                value
                for value in declared[axis]
                if str(value) == token or _cell(value) == token
            ]
            if not matches:
                choices = ", ".join(_cell(v) for v in declared[axis])
                raise ValueError(
                    f"axis {axis!r} has no value {token!r}; "
                    f"declared: {choices}"
                )
            values.extend(
                value for value in matches if value not in values
            )
    return only


def _cell(value) -> str:
    """Render one axis value (numbers compactly, anything else as-is)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return str(value)
    return f"{value:g}"


def format_table(axis_names: list[str], rows: list[dict]) -> str:
    """Render tidy sweep rows as an aligned text table.

    ``trials`` is the realized spend (fixed budget, or whatever the
    adaptive stopping rule used); ``reused`` is the slice of it served
    from the cache's chunk ledger without any sampling.
    """
    headers = [*axis_names, "value", "std_err", "trials", "reused", "cached"]
    rendered = [
        [
            *(_cell(row[name]) for name in axis_names),
            f"{row['value']:.6g}",
            f"{row['standard_error']:.3g}",
            str(row["trials"]),
            str(row["reused_trials"]),
            "yes" if row["cached"] else "no",
        ]
        for row in rows
    ]
    widths = [
        max(len(header), *(len(line[i]) for line in rendered), 0)
        for i, header in enumerate(headers)
    ]
    def fmt(cells):
        return "  ".join(cell.rjust(width) for cell, width in zip(cells, widths))

    ruler = "  ".join("-" * width for width in widths)
    return "\n".join([fmt(headers), ruler, *(fmt(line) for line in rendered)])


def _list_grids(out) -> None:
    print("registered sweep grids:", file=out)
    for name in grid_names():
        grid = get_grid(name)
        axes = " x ".join(
            f"{axis}[{len(tuple(values))}]" for axis, values in grid.axes
        )
        print(
            f"  {name:16s} {axes}  ({grid.size()} points, "
            f"{grid.trials} trials/point)",
            file=out,
        )
        if grid.description:
            print(f"      {grid.description}", file=out)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.sweep",
        description="run a registered parameter sweep grid",
    )
    parser.add_argument("grid", nargs="?", help="grid name (see --list)")
    parser.add_argument(
        "--list", action="store_true", help="list registered grids and exit"
    )
    add_run_flags(parser)
    parser.add_argument(
        "--trials",
        type=int,
        default=None,
        help="override the grid's per-point trial count",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help=(
            "override the grid's base seed (point i runs with seed + i; "
            "a different seed re-keys every cache entry)"
        ),
    )
    parser.add_argument(
        "--target-se",
        type=float,
        default=None,
        help=(
            "adaptive mode: stop each point once its standard error is "
            "<= this (realized trials vary per point, capped by "
            "--max-trials)"
        ),
    )
    parser.add_argument(
        "--rel-se",
        type=float,
        default=None,
        help=(
            "adaptive mode: stop each point once its standard error is "
            "<= this fraction of its value (combinable with --target-se; "
            "first target met stops the point)"
        ),
    )
    parser.add_argument(
        "--max-trials",
        type=int,
        default=None,
        help=(
            "adaptive trial ceiling per point (default: the fixed "
            "--trials budget)"
        ),
    )
    parser.add_argument(
        "--only",
        action="append",
        default=[],
        metavar="AXIS=V1,V2",
        help=(
            "restrict the run to grid points whose AXIS takes one of the "
            "listed values (repeatable; filtered points keep their "
            "full-grid seeds and cache keys)"
        ),
    )
    parser.add_argument(
        "--out",
        default=None,
        help="also write the tidy rows as JSON to this path",
    )
    args = parser.parse_args(argv)

    if args.list:
        _list_grids(sys.stdout)
        return 0
    if not args.grid:
        parser.error("a grid name (or --list) is required")

    try:
        grid = get_grid(args.grid)
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2

    try:
        only = parse_only(grid, args.only)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    # Validate the numeric flags up front (mirroring SweepGrid's and
    # run_until's own checks) so a bad flag is a clean CLI error while
    # genuine runtime failures keep their tracebacks.
    if args.trials is not None and args.trials < 1:
        print("error: --trials must be positive", file=sys.stderr)
        return 2
    if args.seed is not None and args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    for name, value in (
        ("--target-se", args.target_se),
        ("--rel-se", args.rel_se),
    ):
        if value is not None and not value > 0:
            print(f"error: {name} must be positive, got {value}",
                  file=sys.stderr)
            return 2
    if args.max_trials is not None and args.max_trials < 1:
        print("error: --max-trials must be positive", file=sys.stderr)
        return 2
    adaptive = (
        args.target_se is not None
        or args.rel_se is not None
        or grid.target_se is not None
        or grid.rel_se is not None
    )
    if args.max_trials is not None and not adaptive:
        print(
            "error: --max-trials only caps adaptive runs; add "
            "--target-se or --rel-se (fixed budgets use --trials)",
            file=sys.stderr,
        )
        return 2
    problem = unwritable("--out", args.out)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2

    with open_run(args) as (backend, cache):
        start = time.perf_counter()
        rows = run_grid(
            grid,
            trials=args.trials,
            cache=cache,
            backend=backend,
            seed=args.seed,
            only=only,
            target_se=args.target_se,
            rel_se=args.rel_se,
            max_trials=args.max_trials,
        )
        elapsed = time.perf_counter() - start
        print(format_table(grid.axis_names, rows))
        served = sum(1 for row in rows if row["cached"])
        realized = sum(row["trials"] for row in rows)
        reused = sum(row["reused_trials"] for row in rows)
        print(
            f"{len(rows)} points in {elapsed:.2f}s "
            f"(backend={backend.name}, workers={backend.workers}, "
            f"{served} from cache, "
            f"{realized} trials realized, {reused} reused from ledger)"
        )
        if cache is not None:
            print(format_stats(cache.stats()))

    if args.out:
        with open(args.out, "w") as handle:
            json.dump(
                {"grid": grid.name, "trials": args.trials or grid.trials,
                 "workers": backend.workers, "rows": rows},
                handle,
                indent=2,
            )
            handle.write("\n")
        print(f"rows written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
