"""Task-execution worker host: ``python -m repro.worker``.

One worker process serves one host slot of a
:class:`repro.engine.distributed.DistributedBackend`.  It listens on a
TCP port, answers the wire protocol of :mod:`repro.engine.distributed`
(length-prefixed pickle frames; one op, ``task``), and evaluates each
task as ``function(*args)``.  A chunk is the task
``run_chunk(scenario, estimator, size, child)`` — the *same*
:func:`repro.engine.runner.run_chunk` the serial and process backends
run, on the unpickled spawned ``SeedSequence`` child — so per-chunk hit
counts are bit-identical to every other backend.  A chunk reply carries
the chunk's hit count, a plain ``int``.

Usage::

    python -m repro.worker --port 9500            # fixed port
    python -m repro.worker --port 0               # OS-assigned port

The worker prints ``listening on HOST:PORT`` once bound (so scripts
using ``--port 0`` can scrape the assigned port) and exits gracefully on
SIGTERM/SIGINT: in-flight requests finish, then the listener closes.
Concurrency: one thread per connection.  A client keeps one task in
flight per worker address, so a worker evaluates one task at a time for
it; to use more of a host's cores, start one worker per core, each on
its own port, and list each in ``--hosts``.

Security: the protocol is pickle over plain TCP with no authentication —
bind to loopback or a trusted private network only.
"""

from __future__ import annotations

import argparse
import os
import signal
import socket
import socketserver
import sys
import threading
import time
import traceback

# Imported for its side effect: every chunk task calls
# ``repro.engine.runner.run_chunk``, so the worker loads the engine
# before it announces its port, not while its first task waits.
import repro.engine.runner  # noqa: F401
from repro.engine.distributed import recv_message, send_message

__all__ = ["WorkerServer", "handle_request", "serve", "main"]


def handle_request(request: dict) -> dict:
    """Evaluate one wire request; the reply frame (never raises).

    ``task`` is the only op: its ``result`` is ``function(*args)``.  For
    a chunk that is the hit count, a plain ``int`` that the client's
    runner checks before using it; the chunk's ``SeedSequence`` child
    arrives pickled inside ``args`` and draws the same stream as the
    client's.  Any other op gets ``ok: False``.
    """
    try:
        op = request.get("op") if isinstance(request, dict) else None
        if op != "task":
            return {"ok": False, "error": f"unknown op {op!r}"}
        return {"ok": True, "result": request["function"](*request["args"])}
    except Exception:  # noqa: BLE001 - every failure must cross the wire.
        return {"ok": False, "error": traceback.format_exc()}


class _ConnectionHandler(socketserver.BaseRequestHandler):
    def handle(self) -> None:
        while True:
            try:
                request = recv_message(self.request)
            except Exception:  # truncated frame / peer reset: drop quietly.
                return
            if request is None:
                return  # clean end-of-stream.
            reply = handle_request(request)
            op = request.get("op") if isinstance(request, dict) else None
            self.server.record(op, reply.get("ok", False))
            # Piggyback the stats frame on every reply so the client can
            # attribute each task to the worker that served it (and log
            # the provenance when a later requeue fires).  handle_request
            # itself stays pure — tests drive it directly.
            reply = {**reply, "stats": self.server.stats_frame()}
            try:
                send_message(self.request, reply)
            except OSError:
                return


class WorkerServer(socketserver.ThreadingTCPServer):
    """The worker's listener: threaded, address-reusable, stoppable."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, host: str, port: int) -> None:
        super().__init__((host, port), _ConnectionHandler)
        #: Stable identity of this worker process: host name + PID —
        #: what clients log when attributing tasks to hosts.
        self.worker_id = f"{socket.gethostname()}-{os.getpid()}"
        self._started = time.monotonic()
        self._stats_lock = threading.Lock()
        self._served = {"task": 0}
        self._errors = 0

    def record(self, op: str | None, ok: bool) -> None:
        """Count one handled request toward the stats frame."""
        with self._stats_lock:
            if op in self._served:
                self._served[op] += 1
            if not ok:
                self._errors += 1

    def stats_frame(self) -> dict:
        """A point-in-time stats dict piggybacked on every reply.

        ``uptime`` is monotonic seconds since the server bound — a clock
        that cannot jump, so clients can order frames from the same
        worker and detect restarts (uptime reset ⇒ new process behind
        the same host:port).
        """
        with self._stats_lock:
            return {
                "worker": self.worker_id,
                "uptime": time.monotonic() - self._started,
                "served": dict(self._served),
                "errors": self._errors,
            }

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — resolves ``--port 0``."""
        return self.server_address[0], self.server_address[1]

    def request_shutdown(self) -> None:
        """Stop ``serve_forever`` without deadlocking the caller.

        ``shutdown()`` blocks until the serve loop exits, so a signal
        handler must trigger it from a helper thread rather than
        calling it directly.
        """
        threading.Thread(target=self.shutdown, daemon=True).start()


def serve(host: str = "127.0.0.1", port: int = 0) -> WorkerServer:
    """Start a worker in a background thread; the bound server.

    The in-process form used by tests: call
    ``server.request_shutdown()`` (or ``server.shutdown()`` from
    another thread) to stop it.
    """
    server = WorkerServer(host, port)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.worker",
        description="Serve tasks to DistributedBackend clients.",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="interface to bind (default loopback; bind wider only on "
        "trusted networks — the protocol is unauthenticated pickle)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (default 0: OS-assigned, scrape it from the "
        "'listening on' line)",
    )
    options = parser.parse_args(argv)

    server = WorkerServer(options.host, options.port)
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: server.request_shutdown())
    host, port = server.address
    print(f"listening on {host}:{port}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    print("worker shut down", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
