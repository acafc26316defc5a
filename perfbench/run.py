"""Benchmark of the reproduction's four jobs, measured from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Workloads: ``table1-exact``, ``mc-sweep``, ``protocol-sim`` and
``oracle-serve`` (see ``perfbench/README.md`` for why each exists).
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it wraps the program's public functions and reports the
per-layer metrics and the tracing overhead instead.  Every run checks
the program's outputs.  Named metrics are printed first, one per line;
the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Scratch files go to
``.perfbench_work/`` under the checkout.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import shutil
import subprocess
import sys
import time

import layers
import oracle_serve
import speed
import stats
import workloads
from tracing import Tracer, totals_by_name

ROOT = pathlib.Path.cwd()
WORKDIR = ROOT / ".perfbench_work"
WORKLOADS = ("table1-exact", "mc-sweep", "protocol-sim", "oracle-serve")

#: The end-to-end metrics every untraced run reports, with units.  What
#: ``primary_ms``, ``secondary_ms`` and ``work_per_s`` measure differs
#: per workload; the printed named metrics spell it out.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("primary_ms", "ms"),
    ("secondary_ms", "ms"),
    ("work_per_s", "1/s"),
)
#: Set-up is timed this many times per run, in fresh interpreters.
SETUP_PROBES = 5
#: Untraced repetitions at least, however long they take.
MIN_REPS = 3
#: Leading repetitions that are checked but not timed: the first call of
#: a job in a fresh process pays for first-touch memory and lazy imports
#: (Table 1's first slice sweep takes 2.5x as long as later ones).
WARMUP_REPS = 1


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="set the workload up and exit (times set-up in a fresh process)",
    )
    return parser.parse_args(argv)


def setup_probe(args):
    """A callable timing a fresh interpreter from its start until the
    workload is set up (the child reports that moment on the system-wide
    monotonic clock, so its own shutdown is not counted).  It returns the
    raw and the scaled seconds (see ``speed.py``)."""
    command = [
        sys.executable, __file__, "--workload", args.workload,
        "--seed", str(args.seed), "--setup-only",
    ]

    def probe() -> tuple[float, float]:
        loop_before = speed.reference_loop("python")
        start = time.monotonic()
        child = subprocess.run(
            command, check=True, timeout=120, capture_output=True, text=True
        )
        elapsed = float(child.stdout.split()[-1]) - start
        loop_after = speed.reference_loop("python")
        return elapsed, speed.scale("python", elapsed, loop_before, loop_after)

    return probe


def measure(workload, seconds: float, tracer, probe=None):
    """Repeat the workload's job for ``seconds`` (and ``MIN_REPS``),
    after ``WARMUP_REPS`` untimed ones.

    Set-up probes, when given, run between repetitions so that they
    sample the whole run.  Traced runs alternate untraced and traced
    repetitions, so both see the same machine state; the tracer is only
    instrumented during the traced ones, so all its spans are theirs.
    """
    warmups = [workload.rep() for _ in range(WARMUP_REPS)]
    reps, traced_reps, setups = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        if probe is not None and len(setups) < SETUP_PROBES:
            setups.append(probe())
        trace_this = tracer is not None and len(traced_reps) < len(reps)
        if trace_this:
            layers.instrument(tracer, layers.IN_PROCESS)
            try:
                traced_reps.append(workload.rep())
            finally:
                tracer.restore()
        else:
            reps.append(workload.rep())
        done = time.perf_counter() >= deadline
        if tracer is None and done and len(reps) >= MIN_REPS:
            break
        if tracer is not None and done and traced_reps:
            break
    while probe is not None and len(setups) < SETUP_PROBES:
        setups.append(probe())
    return warmups, reps, traced_reps, setups


def in_process(args, workdir):
    workload = workloads.IN_PROCESS[args.workload](args.seed, workdir)
    tracer = Tracer() if args.trace else None
    probe = None if args.trace else setup_probe(args)
    warmups, reps, traced_reps, setups = measure(
        workload, args.seconds, tracer, probe
    )
    every = warmups + reps + traced_reps
    failures = [failure for rep in every for failure in rep.failures]
    attempted = sum(rep.ops for rep in every)
    if tracer is not None:
        values = layers.in_process_metrics(
            totals_by_name(tracer.spans()), tracer.counters, len(traced_reps)
        )
        values["trace.overhead_ratio"] = stats.median(
            [rep.wall for rep in traced_reps]
        ) / stats.median([rep.wall for rep in reps])
        tracer.dump(WORKDIR / f"{args.workload}-trace.json")
        return [], layers.complete(values), attempted, failures
    named, e2e = workload.report(reps)
    named.append(("setup_s_raw", stats.median([raw for raw, _ in setups]), "s"))
    e2e["setup_s"] = stats.median([scaled for _, scaled in setups])
    e2e["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )
    return named, e2e, attempted, failures


def oracle(args, workdir):
    workload = oracle_serve.OracleServe(args.seed, ROOT, workdir)
    if args.trace:
        values, failed = workload.run_traced(args.seconds)
        named, metrics = [], layers.complete(values)
    else:
        named, metrics, failed = workload.run(args.seconds)
    failures = workload.failures + ["request failed"] * failed
    return named, metrics, workload.attempted, failures


def main(argv=None) -> int:
    args = parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"perfbench: {ROOT} holds no src/repro; run from a checkout root",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(1, str(ROOT / "src"))
    workdir = WORKDIR / args.workload
    if args.setup_only:
        workloads.IN_PROCESS[args.workload](args.seed, workdir)
        print(repr(time.monotonic()))
        return 0
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if args.workload == "oracle-serve":
            named, metrics, attempted, failures = oracle(args, workdir)
        else:
            named, metrics, attempted, failures = in_process(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not args.trace:
        metrics = {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in END_TO_END
        }
    for name, value, unit in named:
        print(f"{args.workload:<13} {name:<26} {value:14.6g} {unit}")
    for name, entry in metrics.items():
        print(f"{args.workload:<13} {name:<26} {entry['value']:14.6g} {entry['unit']}")
    attempted = max(attempted, len(failures), 1)
    print(f"{args.workload:<13} {'ops_total':<26} {attempted:14d} count")
    print(f"{args.workload:<13} {'ops_failed':<26} {len(failures):14d} count")
    for failure in failures[:20]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
