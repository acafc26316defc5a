"""``python -m repro.oracle`` — build, inspect, query, and serve tables.

Verbs::

    build  --out DIR [--preset tiny|default] [axis overrides] [--force]
           [--workers N | --hosts H:P,...] [--cache-dir DIR]
           [--trace FILE] [--metrics]
    info   ARTIFACT
    query  ARTIFACT --alpha A --fraction F --delta D (--depth K | --target P)
    serve  ARTIFACT [--host H] [--port P] [--workers N]
           [--max-body-bytes B]

``build`` starts from a preset spec and lets every axis be overridden
(``--alphas 0.1,0.2 --depths 10,20,40 ...``), so CI can build a tiny
artifact in seconds and production a dense one over many cores.  An
override is also how an operator gets an exact answer at an off-grid
point: add its coordinates as grid lines and rebuild.  A rebuild into
a directory whose manifest already matches the spec is a no-op;
``--cache-dir`` (or ``$REPRO_SWEEP_CACHE``) lets the Monte-Carlo
cross-check reuse the engine's result cache across rebuilds.  The run
flags are the sweep's (:func:`repro.engine.parallel.add_run_flags`), so
``--workers``/``--hosts`` pick where the DP cells and the cross-check
run without changing a byte of the artifact.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from repro.engine.parallel import add_run_flags, open_run, unwritable
from repro.oracle.app import DEFAULT_MAX_BODY_BYTES
from repro.oracle.service import SettlementOracle
from repro.oracle.store import StoreError
from repro.oracle.tables import DEFAULT_SPEC, TINY_SPEC, OracleSpec, build_tables

__all__ = ["main"]

_PRESETS = {"tiny": TINY_SPEC, "default": DEFAULT_SPEC}


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(token) for token in text.split(","))


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(token) for token in text.split(","))


def _build_spec(args) -> OracleSpec:
    spec = _PRESETS[args.preset]
    overrides = {
        "alphas": args.alphas,
        "unique_fractions": args.fractions,
        "deltas": args.deltas,
        "depths": args.depths,
        "targets": args.targets,
        "mc_depths": args.mc_depths,
        "activity": args.activity,
        "mc_trials": args.mc_trials,
        "mc_target_se": args.mc_target_se,
        "mc_seed": args.mc_seed,
    }
    overrides = {k: v for k, v in overrides.items() if v is not None}
    if overrides.get("mc_trials") == 0:
        overrides["mc_depths"] = ()
        overrides.setdefault("mc_target_se", 0.0)
    elif "depths" in overrides and "mc_depths" not in overrides:
        # Keep the invariant mc_depths ⊆ depths when only depths moved.
        retained = tuple(
            k for k in spec.mc_depths if k in overrides["depths"]
        )
        overrides["mc_depths"] = retained or overrides["depths"][:1]
    return dataclasses.replace(spec, **overrides)


def _cmd_build(args) -> int:
    spec = _build_spec(args)
    problem = unwritable("--out", args.out, directory=True)
    if problem:
        raise ValueError(problem)
    with open_run(args) as (backend, cache):
        report = build_tables(
            spec,
            out_dir=args.out,
            cache=cache,
            force=args.force,
            log=print,
            backend=backend,
        )
        action = "built" if report.rebuilt else "reused (no-op rebuild)"
        print(
            f"{action} {report.tables.forward.size} forward cells + "
            f"{report.tables.minimal_depth.size} minimal-depth cells in "
            f"{report.seconds:.2f}s"
            + (
                f" ({report.mc_cached}/{report.mc_points} MC checks from "
                "cache)"
                if report.mc_points
                else ""
            )
        )
    return 0


def _cmd_info(args) -> int:
    # One verified load; a missing/foreign artifact surfaces as the
    # StoreError main() renders (no redundant manifest pre-pass).
    oracle = SettlementOracle.load(args.artifact)
    print(json.dumps(oracle.describe(), indent=2))
    return 0


def _cmd_query(args) -> int:
    oracle = SettlementOracle.load(args.artifact)
    if (args.depth is None) == (args.target is None):
        print(
            "error: pass exactly one of --depth (forward query) or "
            "--target (minimal-depth query)",
            file=sys.stderr,
        )
        return 2
    if args.depth is not None:
        value = oracle.violation_probability(
            args.alpha, args.fraction, args.delta, args.depth
        )
        payload = {
            "alpha": args.alpha,
            "unique_fraction": args.fraction,
            "delta": args.delta,
            "depth": args.depth,
            "violation_probability": value,
        }
    else:
        depth, source = oracle.settlement_depth_with_source(
            args.alpha, args.fraction, args.delta, args.target
        )
        payload = {
            "alpha": args.alpha,
            "unique_fraction": args.fraction,
            "delta": args.delta,
            "target": args.target,
            "depth": depth,
            "source": source,
        }
    print(json.dumps(payload))
    return 0


def _cmd_serve(args) -> int:
    # Verb-local: a one-shot query does not load the HTTP server.
    from repro.oracle.server import serve_forever

    oracle = SettlementOracle.load(args.artifact)
    serve_forever(
        oracle,
        host=args.host,
        port=args.port,
        quiet=args.quiet,
        workers=args.workers,
        max_body_bytes=args.max_body_bytes,
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.oracle",
        description="settlement oracle: build / inspect / query / serve "
        "precomputed settlement-delay tables",
    )
    verbs = parser.add_subparsers(dest="verb", required=True)

    build = verbs.add_parser("build", help="build a table artifact")
    build.add_argument("--out", required=True, help="artifact directory")
    build.add_argument(
        "--preset",
        choices=sorted(_PRESETS),
        default="default",
        help="base spec the axis overrides start from",
    )
    build.add_argument("--alphas", type=_floats, default=None)
    build.add_argument("--fractions", type=_floats, default=None)
    build.add_argument("--deltas", type=_ints, default=None)
    build.add_argument("--depths", type=_ints, default=None)
    build.add_argument("--targets", type=_floats, default=None)
    build.add_argument("--activity", type=float, default=None)
    build.add_argument(
        "--mc-trials",
        type=int,
        default=None,
        help=(
            "Monte-Carlo cross-check trial ceiling per cell (0 disables "
            "the cross-check entirely)"
        ),
    )
    build.add_argument(
        "--mc-target-se",
        type=float,
        default=None,
        help=(
            "adaptive cross-check: stop each cell at this standard-error "
            "resolution instead of spending the whole --mc-trials budget "
            "(0 = fixed trial count)"
        ),
    )
    build.add_argument("--mc-depths", type=_ints, default=None)
    build.add_argument("--mc-seed", type=int, default=None)
    build.add_argument(
        "--force",
        action="store_true",
        help="rebuild even when the artifact already matches the spec",
    )
    add_run_flags(build)
    build.set_defaults(run=_cmd_build)

    info = verbs.add_parser("info", help="print an artifact's summary")
    info.add_argument("artifact")
    info.set_defaults(run=_cmd_info)

    query = verbs.add_parser("query", help="answer one query from the CLI")
    query.add_argument("artifact")
    query.add_argument("--alpha", type=float, required=True)
    query.add_argument("--fraction", type=float, required=True)
    query.add_argument("--delta", type=int, required=True)
    query.add_argument("--depth", type=int, default=None)
    query.add_argument("--target", type=float, default=None)
    query.set_defaults(run=_cmd_query)

    serve = verbs.add_parser("serve", help="serve an artifact over HTTP")
    serve.add_argument("artifact")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument(
        "--quiet", action="store_true", help="suppress per-request log lines"
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "pre-fork this many worker processes sharing one listening "
            "socket; each mmap-shares the artifact and labels its "
            "metrics with worker=N (default: 1, no fork)"
        ),
    )
    serve.add_argument(
        "--max-body-bytes",
        type=int,
        default=DEFAULT_MAX_BODY_BYTES,
        help=(
            "reject POST bodies larger than this with a structured 413 "
            f"(default: {DEFAULT_MAX_BODY_BYTES})"
        ),
    )
    serve.set_defaults(run=_cmd_serve)

    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (StoreError, ValueError, RuntimeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
