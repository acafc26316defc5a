"""Request-handling core of the oracle serving tier.

:class:`OracleApp` owns everything about serving settlement queries
that does *not* depend on how bytes arrive: routing, parameter and
body parsing, the structured error contract, per-request metrics and
the access log, and the request-body size limit.  The threaded
``http.server`` front end (:mod:`repro.oracle.server`) is a thin byte
shovel around it, in one process or in each pre-forked worker; the
response body is produced exactly once, here, so every worker returns
byte-identical JSON.

Routes::

    GET  /healthz         -> artifact summary
    GET  /metrics         -> Prometheus text exposition
    GET  /v1/violation?alpha=&unique_fraction=&delta=&depth=
    GET  /v1/depth?alpha=&unique_fraction=&delta=&target=
    POST /v1/violation    {"alpha": [...], ...}   (columnar batch)
    POST /v1/depth        {"alpha": [...], ...}   (columnar batch)

Error contract: every non-200 body is ``{"error": <kind>, "detail":
<message>}`` with kinds ``bad-request`` (malformed JSON, missing or
non-numeric parameters, a non-boolean ``strict``), ``out-of-domain``
(outside the conservative hull), ``not-found``, ``too-large`` (a POST
body over :attr:`OracleApp.max_body_bytes`, HTTP 413 — the server must
reject on the ``Content-Length`` header *before* reading the body; a
request line or header block over the transport's limits, HTTP 414 and
431), ``not-implemented`` (a method other than GET and POST, HTTP 501)
and ``internal`` (genuine bugs, HTTP 500).  All non-2xx statuses are
counted in ``repro_oracle_errors_total{code=...}``, including those
the transport answers before a request reaches :meth:`OracleApp.handle`.

Telemetry: the app owns a :class:`repro.obs.metrics.MetricsRegistry`
(pass ``registry=`` to share one).  Transports call :meth:`observe`
once per request; it counts
``repro_oracle_requests_total{route,method,code}``, observes
``repro_oracle_request_seconds{route}``, and, when not ``quiet``,
writes one structured JSON access-log line to stderr.  In pre-fork
mode every metric additionally carries a ``worker`` label
(``worker_label=``) so per-process scrape targets stay tellable apart.
"""

from __future__ import annotations

import json
import sys
from functools import cached_property
from urllib.parse import parse_qs, urlsplit

import numpy as np

from repro.obs.metrics import MetricsRegistry
from repro.oracle.service import OracleDomainError, SettlementOracle

__all__ = [
    "DEFAULT_MAX_BODY_BYTES",
    "OracleApp",
    "Response",
]

#: Default cap on a POST request body; configurable per app.
DEFAULT_MAX_BODY_BYTES = 16 * 1024 * 1024

_SINGLE_PARAMS = {
    "/v1/violation": ("alpha", "unique_fraction", "delta", "depth"),
    "/v1/depth": ("alpha", "unique_fraction", "delta", "target"),
}

#: Paths that may appear as a ``route`` label; anything else is folded
#: into ``"other"`` so scanners cannot inflate label cardinality.
_ROUTES = frozenset(_SINGLE_PARAMS) | {"/healthz", "/metrics"}

#: Methods that may appear as a ``method`` label; the same folding.
_METHODS = frozenset({"GET", "POST"})


class Response:
    """One finished HTTP response: status, body bytes, content type."""

    __slots__ = ("status", "body", "content_type")

    def __init__(
        self,
        status: int,
        body: bytes,
        content_type: str = "application/json",
    ) -> None:
        self.status = status
        self.body = body
        self.content_type = content_type


class OracleApp:
    """The route/error/metrics core the HTTP transport delegates to.

    A batch ``POST /v1/violation`` body is not a ``json.dumps`` of the
    answers: every answer is a stored ``forward`` cell or the saturated
    ``1.0``, so the app encodes each cell once (on the first batch,
    keyed by flat cell index) and joins the cached bytes of the cells
    :meth:`SettlementOracle.violation_cells` names.  The body is
    byte-identical to ``json.dumps({"violation_probability":
    answers})``; encoding the floats was most of a batch's cost.
    """

    def __init__(
        self,
        oracle: SettlementOracle,
        registry: MetricsRegistry | None = None,
        quiet: bool = True,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        worker_label: str | None = None,
    ) -> None:
        if max_body_bytes < 1:
            raise ValueError("max_body_bytes must be positive")
        self.oracle = oracle
        self.registry = registry if registry is not None else MetricsRegistry()
        self.quiet = quiet
        self.max_body_bytes = max_body_bytes
        self.worker_label = worker_label
        self._labels = (
            {"worker": str(worker_label)} if worker_label is not None else {}
        )
        self._health = {"status": "ok", **oracle.describe()}

    # -- response builders --------------------------------------------

    def _json(self, status: int, payload) -> Response:
        return Response(status, json.dumps(payload).encode())

    def error(self, status: int, kind: str, detail: str) -> Response:
        """A structured error body (the contract every route shares)."""
        return self._json(status, {"error": kind, "detail": detail})

    def too_large(self, length: int) -> Response:
        """The 413 the server returns *instead of reading* an oversized
        body; the connection must then be closed (the body was never
        consumed, so the stream framing is gone)."""
        return self.error(
            413,
            "too-large",
            f"request body of {length} bytes exceeds the "
            f"{self.max_body_bytes}-byte limit",
        )

    def bad_content_length(self, raw: str) -> Response:
        """The 400 for an unparsable ``Content-Length`` header."""
        return self.error(
            400, "bad-request", f"bad request body: invalid Content-Length {raw!r}"
        )

    def unsupported_transfer_encoding(self) -> Response:
        """The 400 for ``Transfer-Encoding`` bodies (not supported;
        the connection must be closed — the framing is unreadable)."""
        return self.error(
            400,
            "bad-request",
            "bad request body: Transfer-Encoding is not supported, "
            "send a Content-Length body",
        )

    # -- dispatch ------------------------------------------------------

    def handle(self, method: str, target: str, body: bytes = b"") -> Response:
        """Answer one request.  ``target`` is the raw request target
        (path + query string); ``body`` the fully-read request body.
        Never raises: internal failures become structured 500s."""
        try:
            return self._dispatch(method, target, body)
        except Exception as error:  # never kill a serving loop
            return self.error(
                500, "internal", f"{type(error).__name__}: {error}"
            )

    def _dispatch(self, method: str, target: str, body: bytes) -> Response:
        split = urlsplit(target)
        path = split.path
        if method == "GET":
            if path == "/healthz":
                return self._json(200, self._health)
            if path == "/metrics":
                return Response(
                    200,
                    self.registry.render().encode(),
                    content_type="text/plain; version=0.0.4",
                )
            if path in _SINGLE_PARAMS:
                return self._guarded(
                    lambda: self._single_answer(path, parse_qs(split.query))
                )
            return self.error(404, "not-found", f"unknown path {path!r}")
        if method == "POST":
            if path not in _SINGLE_PARAMS:
                return self.error(404, "not-found", f"unknown path {path!r}")
            try:
                parsed = json.loads(body or b"{}")
                if not isinstance(parsed, dict):
                    raise ValueError("batch body must be a JSON object")
            except (ValueError, json.JSONDecodeError) as error:
                return self.error(
                    400, "bad-request", f"bad request body: {error}"
                )
            return self._guarded(lambda: self._batch_answer(path, parsed))
        return self.error(
            501, "not-implemented", f"unsupported method {method!r}"
        )

    def _guarded(self, answer) -> Response:
        try:
            return Response(200, answer())
        except OracleDomainError as error:
            return self.error(400, "out-of-domain", str(error))
        except ValueError as error:
            return self.error(400, "bad-request", str(error))
        except Exception as error:  # genuine bug, structured 500
            return self.error(
                500, "internal", f"{type(error).__name__}: {error}"
            )

    # -- the two query routes -----------------------------------------

    def _single_answer(self, path: str, params: dict) -> bytes:
        names = _SINGLE_PARAMS[path]
        values = []
        for name in names:
            raw = params.get(name)
            if raw is None:
                required = ", ".join(names)
                raise ValueError(
                    f"missing parameter {name!r} (need: {required})"
                )
            values.append(float(raw[0] if isinstance(raw, list) else raw))
        alpha, fraction, delta, last = values
        if path == "/v1/violation":
            probability = self.oracle.violation_probability(
                alpha, fraction, delta, last
            )
            payload = {
                "violation_probability": probability,
                "conservative": True,
            }
        else:
            depth, source = self.oracle.settlement_depth_with_source(
                alpha, fraction, delta, last
            )
            payload = {"depth": depth, "source": source, "conservative": True}
        return json.dumps(payload).encode()

    def _batch_answer(self, path: str, body: dict) -> bytes:
        names = _SINGLE_PARAMS[path]
        columns = []
        for name in names:
            column = body.get(name)
            if not isinstance(column, list) or not column:
                required = ", ".join(names)
                raise ValueError(
                    f"batch body needs non-empty array {name!r} "
                    f"(columnar arrays: {required})"
                )
            columns.append(column)
        if len({len(column) for column in columns}) != 1:
            raise ValueError("batch columns must have equal lengths")
        strict = body.get("strict", True)
        if not isinstance(strict, bool):
            # bool("false") is True — demand a real JSON boolean rather
            # than silently treating any non-empty value as strict.
            raise ValueError(
                f"strict must be a JSON boolean (true/false), got {strict!r}"
            )
        if path == "/v1/violation":
            return self._violation_body(
                *self.oracle.violation_cells(*columns, strict=strict)
            )
        depths, sources = self.oracle.settlement_depths_with_source(
            *columns, strict=strict
        )
        return json.dumps(
            {"depth": depths.tolist(), "source": sources}
        ).encode()

    @cached_property
    def _cell_text(self) -> np.ndarray:
        """The JSON text of every ``forward`` cell, by flat cell index,
        then ``b"1.0"`` (the saturated answer) at index ``forward.size``.

        One ``json.dumps`` of the whole table writes exactly the bytes
        it writes for each float inside any list; no float text
        contains ``", "``, so splitting on the separator recovers each
        cell.  Built on the first batch violation request (about 2 ms
        for the 1,260 cells of ``DEFAULT_SPEC``), not at start-up; two
        threads racing that first request build equal arrays.
        """
        forward = np.asarray(self.oracle.tables.forward).ravel().tolist()
        cells = json.dumps(forward)[1:-1].encode().split(b", ")
        cells.append(b"1.0")
        return np.array(cells, dtype=object)

    def _violation_body(self, flat, saturated) -> bytes:
        """``json.dumps({"violation_probability": answers}).encode()``,
        byte for byte, spliced from the cached cell text: the float
        repr of a batch's answers is most of its cost, and every table
        row is one of the artifact's cells."""
        texts = self._cell_text
        cells = np.where(saturated, len(texts) - 1, flat)
        parts = texts.take(cells).tolist()
        return b'{"violation_probability": [' + b", ".join(parts) + b"]}"

    # -- per-request accounting ---------------------------------------

    def observe(
        self,
        method: str,
        path: str,
        status: int,
        elapsed: float,
        client: str | None = None,
    ) -> None:
        """Count one finished request (the server calls this once per
        request, including error and 413 short-circuits)."""
        # http.server hands over ``HTTPStatus`` members, whose ``str``
        # is the member name before Python 3.11; labels are numeric.
        status = int(status)
        route = path if path in _ROUTES else "other"
        code = str(status)
        self.registry.counter(
            "repro_oracle_requests_total",
            "requests served, by route/method/status",
            route=route,
            method=method if method in _METHODS else "other",
            code=code,
            **self._labels,
        ).inc()
        self.registry.histogram(
            "repro_oracle_request_seconds",
            "request handling latency by route",
            route=route,
            **self._labels,
        ).observe(elapsed)
        if status >= 400:
            self.registry.counter(
                "repro_oracle_errors_total",
                "error responses, by status code",
                code=code,
                **self._labels,
            ).inc()
        if not self.quiet:
            entry = {
                "client": client,
                "method": method,
                "path": path,
                "code": status,
                "duration_ms": round(elapsed * 1000, 3),
            }
            if self.worker_label is not None:
                entry["worker"] = self.worker_label
            print(json.dumps(entry), file=sys.stderr, flush=True)
