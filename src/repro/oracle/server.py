"""Threaded front end + serving-tier orchestration for the oracle.

The routing, parsing, error contract and metrics all live in
:class:`~repro.oracle.app.OracleApp` — this module supplies the
``ThreadingHTTPServer`` byte shovel around it, plus the serving
orchestration:

* :func:`make_server` — the classic threaded server (one thread per
  connection; the oracle is read-only mmap-backed state, so handler
  threads need no locking).  It can *adopt* an already-listening
  socket, which is how pre-fork workers share one accept queue.
* :func:`make_listening_socket` — bind + listen without serving, the
  socket a pre-fork parent creates once and every forked worker
  inherits.  The kernel's shared accept queue then load-balances
  connections across workers with no userspace coordination.
* :func:`serve_forever` — the CLI entry.  ``workers > 1`` forks that
  many threaded servers onto one listening socket, each mmap-sharing
  the same artifact pages and labelling its metrics with a ``worker``
  label.  A worker that dies on its own fails the parent.

Routes, the structured error contract, and telemetry are documented on
:class:`OracleApp`; single-process and pre-fork serving return
byte-identical JSON bodies on every route because the bodies are
produced once, in the app.
"""

from __future__ import annotations

import contextlib
import os
import signal
import socket
import sys
import time
import traceback
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit

from repro.oracle.app import DEFAULT_MAX_BODY_BYTES, OracleApp, Response
from repro.oracle.service import SettlementOracle

__all__ = [
    "make_listening_socket",
    "make_server",
    "serve_forever",
]

#: Error kinds of the statuses http.server sends on its own; the others
#: it sends (400, 505) are ``bad-request``.
_TRANSPORT_ERROR_KINDS = {
    414: "too-large",
    431: "too-large",
    501: "not-implemented",
}


def make_listening_socket(
    host: str = "127.0.0.1", port: int = 0, backlog: int = 128
) -> socket.socket:
    """Bind + listen without serving (``port=0`` picks an ephemeral
    port).  A pre-fork parent creates this once; forked workers inherit
    the descriptor and ``accept`` from the one shared kernel queue —
    no ``SO_REUSEPORT`` (which would strand queued connections when a
    worker dies) and no userspace load balancer.
    """
    sock = socket.create_server((host, port), backlog=backlog)
    sock.set_inheritable(True)
    return sock


def make_server(
    app: OracleApp,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    sock: socket.socket | None = None,
) -> ThreadingHTTPServer:
    """Build (and bind, but do not start) the threaded server for ``app``.

    ``port=0`` binds an ephemeral port; read the actual one from
    ``server.server_address[1]``.  ``sock`` adopts an existing
    *listening* socket instead of binding — the pre-fork path.  The
    app is exposed as ``server.app`` and its metrics registry as
    ``server.registry``.
    """

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # Headers and body flush as separate TCP segments; without
        # TCP_NODELAY, Nagle + delayed ACK adds ~40ms to every
        # keep-alive response on Linux.
        disable_nagle_algorithm = True

        def _respond(self, response: Response, close: bool = False) -> None:
            if close:
                self.close_connection = True
            self.send_response(response.status)
            self.send_header("Content-Type", response.content_type)
            self.send_header("Content-Length", str(len(response.body)))
            if close:
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(response.body)

        def do_GET(self) -> None:  # noqa: N802 (http.server API)
            self._serve("GET")

        def do_POST(self) -> None:  # noqa: N802 (http.server API)
            self._serve("POST")

        def _serve(self, method: str) -> None:
            started = time.perf_counter()
            status = 500  # only survives if responding itself raised
            try:
                if method == "POST":
                    status = self._post_response().status
                else:
                    response = app.handle("GET", self.path)
                    status = response.status
                    self._respond(response)
            finally:
                app.observe(
                    method,
                    urlsplit(self.path).path,
                    status,
                    time.perf_counter() - started,
                    client=self.client_address[0],
                )

        def _post_response(self) -> Response:
            """Run the transport-side body checks, answer, and return
            the response (for ``_serve``'s accounting)."""
            if self.headers.get("Transfer-Encoding"):
                response = app.unsupported_transfer_encoding()
                self._respond(response, close=True)
                return response
            raw = self.headers.get("Content-Length", "0")
            try:
                length = int(raw)
                if length < 0:
                    raise ValueError(length)
            except ValueError:
                response = app.bad_content_length(raw)
                self._respond(response, close=True)
                return response
            if length > app.max_body_bytes:
                # Reject on the header alone — the body is never read,
                # so the keep-alive framing is gone and the connection
                # must close.
                response = app.too_large(length)
                self._respond(response, close=True)
                return response
            body = self.rfile.read(length) if length else b""
            response = app.handle("POST", self.path, body)
            self._respond(response)
            return response

        def send_error(self, code, message=None, explain=None) -> None:
            """Answer an error that http.server detects before a route
            runs (a malformed request line, a request line or header
            block over its limits, a method no route takes) under the
            app's error contract, and count it like any other request."""
            started = time.perf_counter()
            code = int(code)  # http.server passes ``HTTPStatus`` members
            # A request line that did not parse leaves the version at
            # HTTP/0.9, for which http.server writes no status line.
            self.request_version = self.protocol_version
            kind = _TRANSPORT_ERROR_KINDS.get(code, "bad-request")
            detail = message or self.responses[code][0]
            self._respond(app.error(code, kind, detail), close=True)
            app.observe(
                self.command or "",
                # ``path`` is this request's only if its line parsed.
                urlsplit(self.path).path if self.command else "",
                code,
                time.perf_counter() - started,
                client=self.client_address[0],
            )

        def log_message(self, format, *args):  # noqa: A002
            pass  # replaced by the app's structured access log.

    if sock is None:
        server = ThreadingHTTPServer((host, port), Handler)
    else:
        server = ThreadingHTTPServer(
            sock.getsockname()[:2], Handler, bind_and_activate=False
        )
        server.socket.close()  # the unused auto-created one
        server.socket = sock
        server.server_address = sock.getsockname()
        server.server_name, server.server_port = server.server_address[:2]
    server.app = app
    server.registry = app.registry
    return server


def _worker_main(app: OracleApp, sock: socket.socket) -> None:
    """Serve ``sock`` with ``app`` until interrupted — the body of a
    pre-fork worker process (and of single-process serving)."""
    server = make_server(app, sock=sock)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()


def _stop_workers(children: list[int], exited: dict[int, int]) -> None:
    """SIGTERM and reap every worker not in ``exited`` (index -> exit
    code); one that has already ended on its own is recorded there."""
    live = []
    for index, pid in enumerate(children):
        if index in exited:
            continue
        try:
            done, status = os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            continue  # already reaped elsewhere
        if done:
            exited[index] = os.waitstatus_to_exitcode(status)
        else:
            live.append(pid)
    for pid in live:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGTERM)
    for pid in live:
        with contextlib.suppress(ChildProcessError):
            os.waitpid(pid, 0)


def serve_forever(
    oracle: SettlementOracle,
    host: str = "127.0.0.1",
    port: int = 8080,
    quiet: bool = False,
    announce=print,
    *,
    workers: int = 1,
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
) -> None:
    """Bind and serve until interrupted (the CLI ``serve`` verb).

    ``workers > 1`` forks that many threaded worker processes sharing
    the listening socket; all of them mmap-share the parent's artifact
    pages.  Every worker's app is built, and so its options checked,
    before the listening line is announced.  A worker that exits
    non-zero on its own stops the others and makes this raise
    :class:`RuntimeError`; a SIGTERM or Ctrl-C to the parent stops them
    all and returns normally.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    apps = [
        OracleApp(
            oracle,
            quiet=quiet,
            max_body_bytes=max_body_bytes,
            worker_label=None if workers == 1 else str(index),
        )
        for index in range(workers)
    ]
    sock = make_listening_socket(host, port)
    bound_host, bound_port = sock.getsockname()[:2]
    announce(
        f"settlement oracle serving {oracle.describe()['cells']} cells "
        f"on http://{bound_host}:{bound_port} "
        f"(workers={workers}) (Ctrl-C to stop)"
    )
    if workers == 1:
        try:
            _worker_main(apps[0], sock)
        finally:
            sock.close()
        return
    children = []
    for app in apps:
        pid = os.fork()
        if pid == 0:
            status = 0
            try:
                _worker_main(app, sock)
            except KeyboardInterrupt:
                pass
            except BaseException:
                traceback.print_exc(file=sys.stderr)
                status = 1
            finally:
                # Never let a worker fall back into the parent's stack.
                os._exit(status)
        children.append(pid)
    sock.close()  # workers hold the only live descriptors now

    def _forward_term(signum, frame):
        # A SIGTERM to the parent must not orphan the workers: route it
        # through the same shutdown path Ctrl-C takes.
        raise KeyboardInterrupt

    # Exit codes of the workers that ended on their own, by index.
    exited: dict[int, int] = {}
    previous = signal.signal(signal.SIGTERM, _forward_term)
    try:
        for index, pid in enumerate(children):
            exited[index] = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if exited[index] != 0:
                break
    except KeyboardInterrupt:
        pass
    finally:
        _stop_workers(children, exited)
        signal.signal(signal.SIGTERM, previous)
    failed = {index: code for index, code in exited.items() if code != 0}
    if failed:
        raise RuntimeError(
            "oracle workers exited abnormally: "
            + ", ".join(
                f"worker {index} with status {code}"
                for index, code in sorted(failed.items())
            )
        )
