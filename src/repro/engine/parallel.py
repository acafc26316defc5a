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
build``) declare their ``--workers/--backend/--hosts`` flags with
:func:`add_backend_flags` and open the backend they name with
:func:`open_backend`; :func:`unwritable` checks their ``--out`` and
``--trace`` paths before any work runs.
"""

from __future__ import annotations

import contextlib
import os
import pathlib
import sys
import time
from concurrent.futures import Future
from typing import TYPE_CHECKING, Iterator, Protocol, runtime_checkable

from repro.obs import metrics

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

__all__ = [
    "BACKEND_NAMES",
    "Backend",
    "ProcessBackend",
    "SerialBackend",
    "WORKERS_ENV",
    "add_backend_flags",
    "default_workers",
    "make_backend",
    "open_backend",
    "unwritable",
]

#: Names accepted by :func:`make_backend` (the CLI ``--backend`` values).
BACKEND_NAMES = ("serial", "process", "distributed")


def make_backend(
    name: str,
    workers: int | None = None,
    hosts: str | None = None,
) -> "Backend":
    """Construct a backend from its CLI name; caller owns ``close()``.

    The single factory behind every ``--backend`` flag (through
    :func:`open_backend`): ``serial``, ``process`` (pool of
    ``workers``), or ``distributed`` (``hosts`` is the required
    ``"host:port,host:port"`` worker list).  Imports lazily so the
    serial/process path never pays for the socket machinery.
    """
    if name == "serial":
        return SerialBackend()
    if name == "process":
        return ProcessBackend(workers)
    if name == "distributed":
        from repro.engine.distributed import DistributedBackend

        return DistributedBackend.from_spec(hosts or "")
    raise ValueError(
        f"unknown backend {name!r}; choose from {', '.join(BACKEND_NAMES)}"
    )


def add_backend_flags(parser) -> None:
    """Declare ``--workers``, ``--backend`` and ``--hosts`` on an
    ``argparse`` parser; :func:`open_backend` reads them back."""
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process-pool size (default 1 = serial; same results either way)",
    )
    parser.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default=None,
        help=(
            "execution backend (default: serial, or process when "
            "--workers > 1); 'distributed' ships the work to the --hosts "
            "workers — results are bit-identical on all of them"
        ),
    )
    parser.add_argument(
        "--hosts",
        default=None,
        metavar="HOST:PORT[,HOST:PORT]",
        help=(
            "worker addresses for --backend distributed (each runs "
            "python -m repro.worker)"
        ),
    )


@contextlib.contextmanager
def open_backend(args) -> Iterator["Backend"]:
    """The backend parsed :func:`add_backend_flags` flags name, closed
    on exit.

    ``--backend`` if given, else ``process`` when ``--workers > 1``,
    else ``serial``; only ``process`` has workers to count, so
    ``--workers > 1`` with another ``--backend`` is an error.  Invalid
    flags build nothing: each error is printed to stderr as one
    ``error:`` line and the command exits with status 2, as
    ``argparse`` does for a malformed flag.
    """
    errors = []
    if args.workers < 1:
        errors.append(f"--workers must be positive, got {args.workers}")
    if args.workers > 1 and args.backend not in (None, "process"):
        errors.append(
            f"--workers only applies to --backend process, not {args.backend}"
        )
    if args.hosts and args.backend != "distributed":
        errors.append("--hosts only applies to --backend distributed")
    if args.backend == "distributed" and not args.hosts:
        errors.append(
            "--backend distributed requires --hosts host:port[,host:port]"
        )
    name = args.backend or ("process" if args.workers > 1 else "serial")
    backend = None
    if not errors:
        try:
            backend = make_backend(name, args.workers, args.hosts)
        except ValueError as error:
            errors.append(str(error))
    if errors:
        for message in errors:
            print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)
    try:
        yield backend
    finally:
        backend.close()


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


#: Environment variable pinning :func:`default_workers` (positive int).
WORKERS_ENV = "REPRO_WORKERS"


def default_workers() -> int:
    """A sensible worker count for this machine: the CPU count.

    A positive integer in ``$REPRO_WORKERS`` overrides the detected
    count — CI runners and ``python -m repro.worker`` hosts pin their
    core budget through it without code changes (anything non-numeric
    or < 1 is rejected loudly rather than silently ignored).  Otherwise
    ``os.process_cpu_count`` (affinity-aware, Python ≥ 3.13) when
    available, else ``os.cpu_count()``, floored at 1.
    """
    pinned = os.environ.get(WORKERS_ENV)
    if pinned is not None:
        try:
            workers = int(pinned)
        except ValueError:
            workers = 0
        if workers < 1:
            raise ValueError(
                f"${WORKERS_ENV} must be a positive integer, got {pinned!r}"
            )
        return workers
    counter = getattr(os, "process_cpu_count", os.cpu_count)
    return max(counter() or 1, 1)


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

    #: The ``--backend`` name this class answers to.
    name = "serial"

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
        """Nothing to tear down (uniform ``make_backend`` lifecycle)."""

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

    def __init__(self, workers: int | None = None) -> None:
        self.workers = workers if workers is not None else default_workers()
        if self.workers < 1:
            raise ValueError("workers must be positive")
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
