"""Execution backends: where a pure task runs.

A backend has one submit method, ``submit_task(function, *args)``,
which returns a future of ``function(*args)``.  Every piece of work
reaches a backend that way: the runner submits each chunk as
``submit_task(run_chunk, scenario, estimator, size, child)`` (see
:func:`repro.engine.runner.run_chunk`) and the settlement-oracle build
submits its exact-DP cells.  A chunk is a fixed-size slice of the trial
stream with its own spawned ``SeedSequence`` child, and its hit count
depends only on ``(scenario, estimator, size, child)`` — never on which
process evaluates it or in which order.  So fanning chunks across a
process pool is *embarrassingly* deterministic: per-chunk hit counts
are bit-identical to a serial run, and the aggregated estimate is
therefore the same for every worker count.  That invariant is what
``tests/engine/test_parallel.py`` pins down.

Why processes and not threads: the chunk kernels are NumPy-bound but
interleave enough Python-level control flow (sampling phases, reduction
bookkeeping) that the GIL caps thread scaling well below core count;
processes sidestep it entirely.  Everything shipped to a worker —
frozen ``Scenario`` dataclasses, module-level estimator functions, the
frozen window-estimator classes, ``SeedSequence`` objects — pickles
cleanly by construction.

The caller owns the pool: it opens one, passes it as ``backend=`` to
any number of runs (``ExperimentRunner.run``, ``run_scenario``,
``repro.engine.sweeps.run_grid``, ``repro.oracle.tables.build_tables``)
and closes it; ``backend=None`` runs in-process::

    with ProcessBackend(8) as pool:
        for scenario in scenarios:
            runner = ExperimentRunner(scenario)
            runner.run(100_000, seed=7, backend=pool)

The command lines (``python -m repro.sweep``, ``python -m repro.oracle
build``) declare the run flags they share with :func:`add_run_flags`
and open them with :func:`open_run`.  No flag names a backend;
:func:`open_backend` works it out from ``--workers`` and ``--hosts`` —
``--hosts`` runs on :class:`~repro.engine.distributed.DistributedBackend`
workers, ``--workers N > 1`` on a ``ProcessBackend(N)``, anything else
serially.  Every backend gives the same rows, so the choice only moves
wall-clock time.  :func:`unwritable` checks an output path before any
work runs.
"""

from __future__ import annotations

import contextlib
import os
import pathlib
import sys
import time
from concurrent.futures import Future
from typing import (
    TYPE_CHECKING,
    Iterator,
    NoReturn,
    Protocol,
    runtime_checkable,
)

from repro.obs import metrics

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

    from repro.engine.cache import ResultCache

__all__ = [
    "Backend",
    "ProcessBackend",
    "SerialBackend",
    "add_run_flags",
    "open_backend",
    "open_run",
    "unwritable",
]


def add_run_flags(parser) -> None:
    """Declare the run flags both command lines share on an ``argparse``
    parser: where the work runs (``--workers``, ``--hosts``), the chunk
    ledger (``--cache-dir``) and telemetry (``--trace``, ``--metrics``).
    :func:`open_run` reads them back."""
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process-pool size (default 1 = serial; same results either way)",
    )
    parser.add_argument(
        "--hosts",
        default=None,
        metavar="HOST:PORT[,HOST:PORT]",
        help=(
            "run on these python -m repro.worker hosts instead of locally "
            "(same results as a serial run)"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=(
            "result-cache directory (default: $REPRO_SWEEP_CACHE if set; "
            "set it empty to run uncached)"
        ),
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help=(
            "write JSONL span events to FILE (summarize with "
            "python -m repro.obs.report FILE); telemetry never touches "
            "the RNG, so traced runs stay bit-identical"
        ),
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help=(
            "collect engine metrics during the run and print the "
            "Prometheus text exposition afterwards"
        ),
    )


def _reject(message: str) -> NoReturn:
    """Print one ``error:`` line and exit 2, as ``argparse`` does for a
    malformed flag."""
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def open_backend(args) -> "Backend":
    """The backend the parsed :func:`add_run_flags` flags state; the
    caller closes it.

    ``--hosts`` gives a ``DistributedBackend`` over those workers,
    ``--workers N > 1`` a ``ProcessBackend(N)``, otherwise a
    ``SerialBackend``.  A non-positive ``--workers``, ``--workers > 1``
    beside ``--hosts`` and a malformed host list exit 2 before anything
    is built.  Nothing connects or forks until the first task.
    """
    if args.workers < 1:
        _reject(f"--workers must be positive, got {args.workers}")
    if not args.hosts:
        if args.workers > 1:
            return ProcessBackend(args.workers)
        return SerialBackend()
    if args.workers > 1:
        _reject("--workers > 1 and --hosts each pick a backend; pass one")
    from repro.engine.distributed import DistributedBackend

    try:
        return DistributedBackend.from_spec(args.hosts)
    except ValueError as error:
        _reject(str(error))


@contextlib.contextmanager
def open_run(args) -> Iterator[tuple["Backend", "ResultCache | None"]]:
    """Open what :func:`add_run_flags` declared; yields
    ``(backend, cache)`` and closes the backend on exit.

    Every flag is checked before anything is made: a bad ``--workers``
    or ``--hosts`` (see :func:`open_backend`) and a ``--trace`` or
    ``--cache-dir`` path that cannot be written exit 2.  The cache is
    ``--cache-dir``, else ``$REPRO_SWEEP_CACHE``, else none.  After a
    block that completes, the trace footer and the ``--metrics``
    exposition are printed, once the backend and the trace are closed.
    """
    # Imported here: the backends alone load neither the ledger nor the
    # trace sink.
    from repro.engine.cache import ResultCache, cache_from_env
    from repro.obs.trace import tracing_to

    problem = unwritable("--trace", args.trace) or unwritable(
        "--cache-dir", args.cache_dir, directory=True
    )
    if problem:
        _reject(problem)
    with (
        open_backend(args) as backend,
        (
            metrics.enabled_registry()
            if args.metrics
            else contextlib.nullcontext()
        ) as registry,
        tracing_to(args.trace) if args.trace else contextlib.nullcontext(),
    ):
        cache = (
            ResultCache(args.cache_dir) if args.cache_dir else cache_from_env()
        )
        yield backend, cache
    if args.trace:
        print(
            f"trace written to {args.trace} "
            f"(summarize: python -m repro.obs.report {args.trace})"
        )
    if registry is not None:
        print("-- metrics --")
        print(registry.render(), end="")


def unwritable(flag: str, path, directory: bool = False) -> str | None:
    """Why ``path`` cannot be written as a file (with ``directory``: be
    made a directory, parents included), or ``None`` (also when no path
    is given).  Creates and truncates nothing, so a command can check
    its ``flag``'s path before it runs any work."""
    if not path:
        return None
    target = pathlib.Path(path)
    if target.exists() and target.is_dir() != directory:
        return f"{flag}: {path} is {'not ' if directory else ''}a directory"
    reach = target.parents if directory else [target.parent]
    where = next((p for p in (target, *reach) if p.exists()), target.parent)
    if where != target and not where.is_dir():
        return f"{flag}: {where} is not a directory"
    if not os.access(where, os.W_OK):
        return f"{flag}: {where} is not writable"
    return None


@runtime_checkable
class Backend(Protocol):
    """The streaming execution interface every backend implements.

    The runner (fixed-budget *and* adaptive paths), the sweep
    orchestrator, and the oracle builder all drive exactly this
    surface — pure tasks in, futures out — so every backend is
    interchangeable and the choice of backend can never change a
    result, only its wall-clock.
    """

    def submit_task(self, function, /, *args):
        """Submit one pure, picklable task; returns its future."""
        ...  # pragma: no cover - protocol signature only


class _ImmediateFuture:
    """A pre-resolved stand-in for ``concurrent.futures.Future``."""

    def __init__(self, value) -> None:
        self._value = value

    def result(self):
        return self._value


#: Help text of the ``repro_task_seconds{backend}`` histogram.
_TASK_SECONDS_HELP = "task latency by backend"


class SerialBackend:
    """In-process backend: evaluates tasks eagerly, no pool.

    Exists so the runner and the sweep orchestrator drive *one*
    submit/gather code path for every worker count — the serial case is
    just the backend whose futures are already resolved.  Per-chunk
    results are identical to :class:`ProcessBackend` by the seed-tree
    contract.
    """

    #: The name the sweep summary reports.
    name = "serial"
    #: Tasks in flight at once.
    workers = 1

    def submit_task(self, function, /, *args) -> _ImmediateFuture:
        """Evaluate one pure task now; a resolved future.

        The task must be a top-level callable with picklable arguments
        so the same call works on a process pool or a remote worker.
        With metrics enabled its evaluation time is observed in
        ``repro_task_seconds{backend="serial"}``.
        """
        if metrics.active() is None:
            return _ImmediateFuture(function(*args))
        start = time.perf_counter()
        result = function(*args)
        metrics.histogram(
            "repro_task_seconds", _TASK_SECONDS_HELP, backend="serial"
        ).observe(time.perf_counter() - start)
        return _ImmediateFuture(result)

    def close(self) -> None:
        """Nothing to tear down (the lifecycle every backend shares)."""

    def __enter__(self) -> "SerialBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ProcessBackend:
    """A reusable pool of worker processes evaluating tasks.

    The pool is started lazily on the first submitted task (a run served
    entirely from the chunk ledger never starts it) and torn down by
    :meth:`close` (or the context-manager exit).  One backend can serve
    many runs — the sweep orchestrator opens a single backend for a
    whole grid and keeps chunks from *all* points in flight at once, so
    workers never idle at point boundaries and any per-process startup
    cost is paid once.  (The pool uses the platform's default start
    method: ``fork`` on typical Linux/CPython — workers inherit the
    parent cheaply — and ``spawn`` on macOS/Windows, where workers
    re-import the interpreter and NumPy; everything shipped to a worker
    pickles under either.)
    """

    name = "process"

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError("workers must be positive")
        self.workers = workers
        self._executor: ProcessPoolExecutor | None = None

    def _pool(self) -> ProcessPoolExecutor:
        if self._executor is None:
            # Imported here: the serial paths never load multiprocessing.
            from concurrent.futures import ProcessPoolExecutor

            self._executor = ProcessPoolExecutor(max_workers=self.workers)
        return self._executor

    def submit_task(self, function, /, *args) -> Future:
        """Submit one pure task to the pool; its future.

        ``function`` must be a top-level (picklable) callable and the
        task deterministic — results may be collected in any order.
        Non-blocking: callers may submit the chunks of many runs before
        collecting any result, which is how the sweep orchestrator keeps
        all workers busy across point boundaries.
        """
        future = self._pool().submit(function, *args)
        if metrics.active() is not None:
            # Latency includes queue wait (submit -> completion): that is
            # the number an operator watching pool saturation wants.  The
            # callback fires in this process, so the observation lands in
            # the caller's registry, not a worker's.
            latency = metrics.histogram(
                "repro_task_seconds", _TASK_SECONDS_HELP, backend="process"
            )
            submitted = time.perf_counter()
            future.add_done_callback(
                lambda _f: latency.observe(time.perf_counter() - submitted)
            )
        return future

    def close(self) -> None:
        """Shut the pool down (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def __enter__(self) -> "ProcessBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
