"""Multi-host execution backend: tasks over a socket wire protocol.

:class:`DistributedBackend` implements the
:class:`repro.engine.parallel.Backend` protocol by shipping pickled
tasks to ``python -m repro.worker`` processes on other hosts and
resolving the caller's futures with their results.  A chunk is the task
``run_chunk(scenario, estimator, size, child)``, a pure function of its
arguments; the spawned ``SeedSequence`` child is pickled inside the
task, and a pickle round trip reproduces its stream exactly on any
host.  So distribution preserves the engine's serial ≡ parallel ≡
distributed bit-identity contract: every backend produces the same
per-chunk hit counts, and re-execution after a worker loss is always
safe (at-least-once delivery, exactly-once *semantics*).

Wire protocol
-------------

One TCP connection per worker, length-prefixed pickle frames both ways:

* frame   = 8-byte big-endian payload length ``n`` + ``n`` bytes of
  ``pickle.dumps(obj)``;
* request = ``{"op": "task", "function": ..., "args": (...)}``, the
  only op; a worker answers any other op with ``ok: False``;
* reply   = ``{"ok": True, "result": ...}`` or ``{"ok": False,
  "error": <traceback string>}``, with the worker's ``stats`` dict
  (see :attr:`DistributedBackend.worker_stats`) on every reply; a reply
  without it is malformed, and malformed replies are requeued like a
  transport failure.  A chunk's ``result`` is its hit count, a plain
  ``int``; the runner rejects a reply that is not an ``int`` within
  ``[0, size]`` before adding or ledgering it
  (:func:`repro.engine.runner.is_hit_count`).

Requests are answered in order on each connection; the backend keeps at
most one request in flight per worker, so the worker needs no request
ids.  Frames above :data:`MAX_FRAME_BYTES` are refused before
deserialising — a corrupted length prefix must not trigger a
multi-gigabyte allocation.

Failure semantics
-----------------

Each worker is driven by one client thread pulling from a shared work
queue.  A *transport* failure (connect refused, send/recv error, the
per-request ``timeout``) requeues the item — another worker, or this one
after reconnecting, will re-execute it — and the thread reconnects with
exponential backoff.  A thread that exhausts its reconnect attempts
retires; when the *last* thread retires the queue is drained and every
pending future fails with :class:`ConnectionError`.  A *remote* failure
(the worker ran the item and replied ``ok: False``) is deterministic, so
it is raised as :class:`RemoteTaskError` without retry — re-running a
pure function cannot change its outcome.

Security: the protocol is pickle over plain TCP — run workers only on
hosts and networks you trust, exactly as you would a Dask or
``multiprocessing.managers`` cluster.
"""

from __future__ import annotations

import logging
import pickle
import queue
import socket
import struct
import threading
import time
from concurrent.futures import Future
from typing import Sequence

from repro.obs import metrics

logger = logging.getLogger("repro.engine.distributed")

__all__ = [
    "DistributedBackend",
    "ProtocolError",
    "RemoteTaskError",
    "recv_message",
    "send_message",
]

#: Struct format of the frame header: one unsigned 64-bit length.
HEADER_FORMAT = ">Q"
HEADER_BYTES = struct.calcsize(HEADER_FORMAT)

#: Refuse frames larger than this before allocating for them (1 GiB).
MAX_FRAME_BYTES = 1 << 30


class ProtocolError(RuntimeError):
    """The wire stream violated the framing contract."""


class RemoteTaskError(RuntimeError):
    """A worker executed a work item and reported a Python error."""


def send_message(sock: socket.socket, message: object) -> None:
    """Write one length-prefixed pickle frame to ``sock``."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    sock.sendall(struct.pack(HEADER_FORMAT, len(payload)) + payload)


def _recv_exactly(sock: socket.socket, count: int) -> bytes | None:
    """Read exactly ``count`` bytes; ``None`` on clean EOF at a frame
    boundary, :class:`ProtocolError` on EOF mid-frame."""
    parts: list[bytes] = []
    remaining = count
    while remaining:
        piece = sock.recv(min(remaining, 1 << 20))
        if not piece:
            if remaining == count and not parts:
                return None
            raise ProtocolError(
                f"connection closed mid-frame ({remaining} bytes short)"
            )
        parts.append(piece)
        remaining -= len(piece)
    return b"".join(parts)


def recv_message(sock: socket.socket) -> object | None:
    """Read one frame from ``sock``; ``None`` on clean end-of-stream."""
    header = _recv_exactly(sock, HEADER_BYTES)
    if header is None:
        return None
    (length,) = struct.unpack(HEADER_FORMAT, header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds protocol cap")
    payload = _recv_exactly(sock, length)
    if payload is None:
        raise ProtocolError("connection closed before frame payload")
    return pickle.loads(payload)


def _host_key(host: tuple[str, int]) -> str:
    """The ``"host:port"`` form used for stats keys and log lines."""
    return f"{host[0]}:{host[1]}"


class _WorkItem:
    __slots__ = ("message", "future", "failures")

    def __init__(self, message: dict, future: Future) -> None:
        self.message = message
        self.future = future
        self.failures = 0


def parse_hosts(spec: str | Sequence[str]) -> list[tuple[str, int]]:
    """Parse ``"host:port,host:port"`` (or a sequence of such entries).

    A bare ``:port`` entry means localhost.  Raises ``ValueError`` on
    malformed entries rather than guessing.
    """
    if isinstance(spec, str):
        entries = [part for part in spec.split(",") if part.strip()]
    else:
        entries = list(spec)
    hosts: list[tuple[str, int]] = []
    for entry in entries:
        host, separator, port_text = entry.strip().rpartition(":")
        if not separator or not port_text.isdigit():
            raise ValueError(
                f"host entry {entry!r} is not of the form host:port"
            )
        hosts.append((host or "127.0.0.1", int(port_text)))
    if not hosts:
        raise ValueError("at least one worker host is required")
    return hosts


class DistributedBackend:
    """Backend fanning tasks out to ``repro.worker`` hosts.

    ``hosts`` is a list of ``(host, port)`` pairs (or use
    :meth:`from_spec` for the CLI's ``"host:port,host:port"`` form);
    each host runs one ``python -m repro.worker`` process.  ``timeout``
    bounds every round trip — size tasks so evaluation fits well
    inside it, since a timed-out task is re-executed elsewhere.
    ``max_failures`` caps transport-level re-deliveries *per item*
    before its future fails (defaults to three tries per worker).
    """

    name = "distributed"

    def __init__(
        self,
        hosts: Sequence[tuple[str, int]],
        timeout: float = 120.0,
        max_failures: int | None = None,
        reconnect_attempts: int = 6,
        backoff_base: float = 0.1,
        backoff_cap: float = 2.0,
    ) -> None:
        self.hosts = list(hosts)
        if not self.hosts:
            raise ValueError("at least one worker host is required")
        #: One task in flight per host.
        self.workers = len(self.hosts)
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        self.timeout = timeout
        self.max_failures = (
            3 * len(self.hosts) if max_failures is None else max_failures
        )
        self.reconnect_attempts = reconnect_attempts
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self._queue: queue.Queue[_WorkItem] = queue.Queue()
        self._threads: list[threading.Thread] = []
        self._lock = threading.Lock()
        self._alive = 0
        self._closed = threading.Event()
        #: Latest stats frame piggybacked by each worker, keyed by
        #: ``"host:port"`` — who served what, and for how long they have
        #: been up.
        self.worker_stats: dict[str, dict] = {}

    @classmethod
    def from_spec(cls, spec: str, **kwargs) -> "DistributedBackend":
        """Build a backend from a ``"host:port,host:port"`` string."""
        return cls(parse_hosts(spec), **kwargs)

    # -- Backend protocol -------------------------------------------------

    def submit_task(self, function, /, *args) -> Future:
        """Ship one pure, picklable task to a worker; its future."""
        if self._closed.is_set():
            raise RuntimeError("backend is closed")
        self._ensure_threads()
        with self._lock:
            if self._alive == 0:
                raise ConnectionError(
                    f"all {len(self.hosts)} worker hosts were lost"
                )
        future: Future = Future()
        message = {"op": "task", "function": function, "args": args}
        self._queue.put(_WorkItem(message, future))
        return future

    def close(self) -> None:
        """Stop the client threads; pending futures fail (idempotent).

        Does *not* stop the worker processes — they belong to whoever
        started them and may be serving other clients.
        """
        self._closed.set()
        for thread in self._threads:
            thread.join(timeout=self.timeout + 5.0)
        self._threads.clear()
        self._drain(ConnectionError("backend closed with work pending"))

    def __enter__(self) -> "DistributedBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- client threads ---------------------------------------------------

    def _ensure_threads(self) -> None:
        with self._lock:
            if self._threads:
                return
            self._alive = len(self.hosts)
            for host in self.hosts:
                thread = threading.Thread(
                    target=self._serve_host,
                    args=(host,),
                    name=f"repro-distributed-{host[0]}:{host[1]}",
                    daemon=True,
                )
                self._threads.append(thread)
                thread.start()

    def _serve_host(self, host: tuple[str, int]) -> None:
        try:
            while not self._closed.is_set():
                sock = self._connect(host)
                if sock is None:
                    if not self._closed.is_set():
                        metrics.counter(
                            "repro_distributed_workers_lost_total",
                            "worker hosts retired after reconnect backoff",
                        ).inc()
                        logger.warning(
                            "worker %s unreachable after %d attempts; "
                            "retiring (last stats: %s)",
                            _host_key(host),
                            self.reconnect_attempts,
                            self.worker_stats.get(_host_key(host)),
                        )
                    return  # backoff exhausted: retire this worker.
                try:
                    self._pump(sock, host)
                finally:
                    sock.close()
        finally:
            with self._lock:
                self._alive -= 1
                last = self._alive == 0
            if last and not self._closed.is_set():
                self._drain(
                    ConnectionError(
                        f"all {len(self.hosts)} worker hosts were lost"
                    )
                )

    def _connect(self, host: tuple[str, int]) -> socket.socket | None:
        """Connect with exponential backoff; ``None`` when giving up."""
        delay = self.backoff_base
        for attempt in range(self.reconnect_attempts):
            if self._closed.is_set():
                return None
            try:
                sock = socket.create_connection(host, timeout=self.timeout)
                sock.settimeout(self.timeout)
                if attempt:
                    metrics.counter(
                        "repro_distributed_reconnects_total",
                        "successful reconnects after a transport failure",
                    ).inc()
                return sock
            except OSError:
                metrics.counter(
                    "repro_distributed_connect_failures_total",
                    "failed connection attempts to worker hosts",
                ).inc()
                if attempt + 1 == self.reconnect_attempts:
                    return None
                self._closed.wait(delay)
                delay = min(delay * 2, self.backoff_cap)
        return None

    def _absorb_stats(self, host_key: str, reply: dict) -> None:
        """Merge a worker's piggybacked stats frame into client state."""
        stats = reply["stats"]
        self.worker_stats[host_key] = stats
        registry = metrics.active()
        if registry is None:
            return
        worker = str(stats.get("worker", host_key))
        registry.gauge(
            "repro_worker_uptime_seconds",
            "monotonic uptime reported by each worker",
            worker=worker,
        ).set(float(stats.get("uptime", 0.0)))
        served = stats.get("served", {})
        if isinstance(served, dict):
            for op, count in served.items():
                registry.gauge(
                    "repro_worker_served_requests",
                    "requests served per worker, by op (worker-reported)",
                    worker=worker,
                    op=str(op),
                ).set(float(count))
        registry.gauge(
            "repro_worker_errors",
            "failed requests per worker (worker-reported)",
            worker=worker,
        ).set(float(stats.get("errors", 0)))

    def _pump(self, sock: socket.socket, host: tuple[str, int]) -> None:
        """Drive one connection until it breaks or the backend closes."""
        host_key = _host_key(host)
        while not self._closed.is_set():
            try:
                item = self._queue.get(timeout=0.1)
            except queue.Empty:
                continue
            started = time.perf_counter()
            try:
                send_message(sock, item.message)
                reply = recv_message(sock)
            except (OSError, ProtocolError, pickle.PickleError) as error:
                self._requeue(item, error, host_key)
                return  # transport is suspect: reconnect.
            metrics.histogram(
                "repro_rpc_seconds",
                "round-trip latency of worker RPCs, by op",
                op="task",
            ).observe(time.perf_counter() - started)
            if (
                not isinstance(reply, dict)
                or "ok" not in reply
                or not isinstance(reply.get("stats"), dict)
            ):
                self._requeue(
                    item,
                    ProtocolError(f"malformed worker reply: {reply!r}"),
                    host_key,
                )
                return
            self._absorb_stats(host_key, reply)
            if reply["ok"]:
                item.future.set_result(reply["result"])
            else:
                # The worker *ran* the item and it raised: deterministic,
                # so surface it instead of re-executing elsewhere.
                item.future.set_exception(RemoteTaskError(reply["error"]))

    def _requeue(
        self, item: _WorkItem, error: Exception, host_key: str | None = None
    ) -> None:
        metrics.counter(
            "repro_distributed_requeues_total",
            "work items re-delivered after a transport failure",
        ).inc()
        if host_key is not None:
            stats = self.worker_stats.get(host_key)
            logger.warning(
                "requeueing task after transport failure on %s "
                "(worker %s, uptime %.1fs at last frame): %r",
                host_key,
                stats.get("worker", "unknown") if stats else "unknown",
                float(stats.get("uptime", 0.0)) if stats else 0.0,
                error,
            )
        item.failures += 1
        if item.failures >= self.max_failures:
            item.future.set_exception(
                ConnectionError(
                    f"work item failed {item.failures} transport attempts; "
                    f"last error: {error!r}"
                )
            )
        else:
            self._queue.put(item)

    def _drain(self, error: Exception) -> None:
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return
            if not item.future.done():
                item.future.set_exception(error)
