"""OracleApp without a socket: routing, the error contract, batch
validation, and per-request accounting.

The HTTP conformance suite (test_serving_modes.py) drives the same app
through the threaded and pre-fork servers; these tests call
:meth:`OracleApp.handle` and :meth:`OracleApp.observe` directly, which
reaches the branches a well-formed HTTP client never takes.
"""

import itertools
import json
from enum import Enum, IntEnum
from http import HTTPStatus

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.analysis.exact import compute_settlement_probabilities
from repro.obs.metrics import MetricsRegistry
from repro.oracle.app import DEFAULT_MAX_BODY_BYTES, OracleApp
from repro.oracle.service import SettlementOracle
from repro.oracle.tables import (
    OracleSpec,
    OracleTables,
    build_tables,
    effective_probabilities,
)

SPEC = OracleSpec(
    alphas=(0.1, 0.2),
    unique_fractions=(0.5, 1.0),
    deltas=(0, 2),
    depths=(5, 10),
    targets=(1e-1, 1e-2),
    activity=0.05,
)

SCALAR = "/v1/violation?alpha=0.2&unique_fraction=1.0&delta=0&depth=10"

BATCH = {
    "alpha": [0.1, 0.2, 0.13],
    "unique_fraction": [1.0, 0.5, 0.8],
    "delta": [0, 2, 1],
    "depth": [5, 10, 7],
}


@pytest.fixture(scope="module")
def oracle():
    return SettlementOracle(build_tables(SPEC).tables)


@pytest.fixture
def app(oracle):
    return OracleApp(oracle)


#: The query column names of ``POST /v1/violation``, in order.
VIOLATION_COLUMNS = ("alpha", "unique_fraction", "delta", "depth")

#: One row per grid cell, in the C order of ``forward``.
EVERY_CELL = {
    name: list(column)
    for name, column in zip(
        VIOLATION_COLUMNS,
        zip(
            *itertools.product(
                SPEC.alphas, SPEC.unique_fractions, SPEC.deltas, SPEC.depths
            )
        ),
    )
}

#: A non-strict batch whose rows 1, 3 and 4 leave the hull (alpha above,
#: fraction below, delta above, depth below the grid) and saturate.
SATURATING_BATCH = {
    "alpha": [0.1, 0.49, 0.2, 0.15, 0.1],
    "unique_fraction": [1.0, 1.0, 0.7, 0.2, 0.5],
    "delta": [0, 0, 1, 5, 2],
    "depth": [5, 10, 12, 7, 2],
    "strict": False,
}


def _post(app, path, payload):
    if not isinstance(payload, bytes):
        payload = json.dumps(payload).encode()
    return app.handle("POST", path, payload)


def _error(response):
    payload = json.loads(response.body)
    assert set(payload) == {"error", "detail"}
    return payload


class TestConstruction:
    @pytest.mark.parametrize("limit", [0, -1])
    def test_non_positive_body_limit_rejected(self, oracle, limit):
        with pytest.raises(ValueError, match="max_body_bytes"):
            OracleApp(oracle, max_body_bytes=limit)

    def test_defaults(self, app):
        assert app.max_body_bytes == DEFAULT_MAX_BODY_BYTES
        assert app.quiet is True
        assert isinstance(app.registry, MetricsRegistry)

    def test_shared_registry_is_used(self, oracle):
        registry = MetricsRegistry()
        app = OracleApp(oracle, registry=registry)
        assert app.registry is registry
        app.observe("GET", "/healthz", 200, 0.001)
        assert "repro_oracle_requests_total" in registry.render()


class TestRoutes:
    def test_healthz_is_the_artifact_summary(self, app, oracle):
        response = app.handle("GET", "/healthz")
        assert response.status == 200
        assert json.loads(response.body) == {
            "status": "ok",
            **oracle.describe(),
        }

    def test_metrics_is_prometheus_text(self, app):
        app.observe("GET", "/healthz", 200, 0.001)
        response = app.handle("GET", "/metrics")
        assert response.status == 200
        assert response.content_type == "text/plain; version=0.0.4"
        assert b"repro_oracle_requests_total" in response.body

    def test_scalar_violation_equals_dp(self, app):
        response = app.handle("GET", SCALAR)
        assert response.status == 200
        assert response.content_type == "application/json"
        law = effective_probabilities(0.2, 1.0, 0, SPEC.activity)
        sweep = compute_settlement_probabilities(
            law, list(range(1, SPEC.depth_horizon + 1))
        )
        assert json.loads(response.body) == {
            "violation_probability": sweep[10],
            "conservative": True,
        }

    def test_batch_equals_scalar_answers(self, app):
        batch = json.loads(_post(app, "/v1/violation", BATCH).body)
        scalars = [
            json.loads(
                app.handle(
                    "GET",
                    f"/v1/violation?alpha={a}&unique_fraction={f}"
                    f"&delta={d}&depth={k}",
                ).body
            )["violation_probability"]
            for a, f, d, k in zip(*BATCH.values())
        ]
        assert batch["violation_probability"] == scalars

    def test_batch_depth_reports_sources(self, app):
        payload = json.loads(
            _post(
                app,
                "/v1/depth",
                {
                    "alpha": [0.1, 0.2],
                    "unique_fraction": [1.0, 0.5],
                    "delta": [0, 2],
                    "target": [0.1, 0.01],
                },
            ).body
        )
        assert len(payload["depth"]) == len(payload["source"]) == 2
        assert set(payload["source"]) <= {"table", "analytic", None}

    def test_responses_are_deterministic_bytes(self, oracle):
        first, second = OracleApp(oracle), OracleApp(oracle)
        for target in (SCALAR, "/healthz", "/v2/nothing"):
            assert first.handle("GET", target).body == (
                second.handle("GET", target).body
            )
        assert _post(first, "/v1/violation", BATCH).body == (
            _post(second, "/v1/violation", BATCH).body
        )


def _dumps_body(values) -> bytes:
    """The batch violation body as ``json.dumps`` writes it."""
    return json.dumps({"violation_probability": list(values)}).encode()


class TestBatchViolationBody:
    """The spliced batch body equals ``json.dumps`` of the answers byte
    for byte: table cells and saturated rows alike."""

    @staticmethod
    def _expected(oracle, batch) -> bytes:
        values = oracle.violation_probabilities(
            *(batch[name] for name in VIOLATION_COLUMNS),
            strict=batch.get("strict", True),
        )
        return _dumps_body(values.tolist())

    def test_strict_batch(self, app, oracle):
        for batch in (BATCH, EVERY_CELL):
            response = _post(app, "/v1/violation", batch)
            assert response.status == 200
            assert response.body == self._expected(oracle, batch)

    def test_saturated_rows(self, app, oracle):
        response = _post(app, "/v1/violation", SATURATING_BATCH)
        assert response.status == 200
        assert response.body == self._expected(oracle, SATURATING_BATCH)
        answers = json.loads(response.body)["violation_probability"]
        assert [answers[row] for row in (1, 3, 4)] == [1.0, 1.0, 1.0]
        assert answers[0] < 1.0 and answers[2] < 1.0

    @given(
        forward=st.lists(
            st.floats(allow_nan=False, allow_infinity=False),
            min_size=len(EVERY_CELL["alpha"]),
            max_size=len(EVERY_CELL["alpha"]),
        )
    )
    @example(
        forward=[5e-324, 1.0, 0.1, 1e-300, 2.5e-310, -0.0, 1e-5, 0.3]
        + [2.2250738585072014e-308, 1 / 3, 1e16, 123456789.0]
        + [0.05023999999999981, 4.9e-322, 1e22, 0.0]
    )
    def test_any_finite_forward_contents(self, forward):
        """Every cell of an arbitrary table, plus a saturated row."""
        tables = OracleTables(
            SPEC,
            forward=np.array(forward, dtype=np.float64).reshape(SPEC.shape),
            minimal_depth=np.full(
                SPEC.shape[:3] + (len(SPEC.targets),), -1, dtype=np.int64
            ),
        )
        app = OracleApp(SettlementOracle(tables))
        batch = {
            **{name: column + [0.49] for name, column in EVERY_CELL.items()},
            "strict": False,
        }
        response = _post(app, "/v1/violation", batch)
        assert response.status == 200
        assert response.body == _dumps_body(forward + [1.0])


class TestErrorContract:
    def test_unsupported_method_is_501(self, app):
        response = app.handle("DELETE", SCALAR)
        assert response.status == 501
        payload = _error(response)
        assert payload["error"] == "not-implemented"
        assert "'DELETE'" in payload["detail"]

    @pytest.mark.parametrize("path", ["/healthz", "/metrics", "/v2/nothing"])
    def test_post_outside_query_routes_is_404(self, app, path):
        response = _post(app, path, BATCH)
        assert response.status == 404
        assert _error(response)["error"] == "not-found"

    @pytest.mark.parametrize("body", [b"[1, 2]", b'"text"', b"3"])
    def test_non_object_batch_is_400(self, app, body):
        response = _post(app, "/v1/violation", body)
        assert response.status == 400
        payload = _error(response)
        assert payload["error"] == "bad-request"
        assert "JSON object" in payload["detail"]

    def test_empty_body_names_missing_array(self, app):
        response = app.handle("POST", "/v1/violation", b"")
        assert response.status == 400
        assert "non-empty array 'alpha'" in _error(response)["detail"]

    def test_empty_column_is_400(self, app):
        response = _post(app, "/v1/violation", {**BATCH, "depth": []})
        assert response.status == 400
        assert "'depth'" in _error(response)["detail"]

    def test_unequal_columns_are_400(self, app):
        response = _post(app, "/v1/violation", {**BATCH, "depth": [5, 10]})
        assert response.status == 400
        assert "equal lengths" in _error(response)["detail"]

    def test_non_numeric_parameter_is_400(self, app):
        response = app.handle(
            "GET",
            "/v1/violation?alpha=high&unique_fraction=1.0&delta=0&depth=10",
        )
        assert response.status == 400
        assert _error(response)["error"] == "bad-request"

    def test_missing_parameter_lists_every_name(self, app):
        response = app.handle("GET", "/v1/depth?alpha=0.1")
        assert response.status == 400
        detail = _error(response)["detail"]
        assert "'unique_fraction'" in detail
        assert "alpha, unique_fraction, delta, target" in detail

    def test_non_strict_batch_saturates_off_hull(self, app):
        off_hull = {
            "alpha": [0.49],
            "unique_fraction": [1.0],
            "delta": [0],
            "depth": [10],
        }
        assert _post(app, "/v1/violation", off_hull).status == 400
        response = _post(app, "/v1/violation", {**off_hull, "strict": False})
        assert response.status == 200
        assert json.loads(response.body)["violation_probability"] == [1.0]

    def test_oracle_failure_is_structured_500(self, oracle, monkeypatch):
        app = OracleApp(oracle)

        def broken(*args, **kwargs):
            raise RuntimeError("table page vanished")

        monkeypatch.setattr(oracle, "violation_probability", broken)
        response = app.handle("GET", SCALAR)
        assert response.status == 500
        assert _error(response) == {
            "error": "internal",
            "detail": "RuntimeError: table page vanished",
        }

    def test_handle_never_raises(self, oracle, monkeypatch):
        app = OracleApp(oracle)
        monkeypatch.setattr(app.registry, "render", lambda: 1 // 0)
        response = app.handle("GET", "/metrics")
        assert response.status == 500
        assert _error(response)["detail"].startswith("ZeroDivisionError")

    def test_transport_error_bodies(self, oracle):
        app = OracleApp(oracle, max_body_bytes=100)
        too_large = app.too_large(101)
        assert too_large.status == 413
        assert _error(too_large) == {
            "error": "too-large",
            "detail": "request body of 101 bytes exceeds the 100-byte limit",
        }
        bad_length = app.bad_content_length("-5")
        assert bad_length.status == 400
        assert "'-5'" in _error(bad_length)["detail"]
        chunked = app.unsupported_transfer_encoding()
        assert chunked.status == 400
        assert "Transfer-Encoding" in _error(chunked)["detail"]


class _NamedStatus(IntEnum):
    """An ``IntEnum`` whose ``str`` is its member name, as it was for
    every ``IntEnum`` (``HTTPStatus`` included) before Python 3.11."""

    REQUEST_URI_TOO_LONG = 414
    __str__ = Enum.__str__


class TestObserve:
    def test_unknown_paths_fold_into_other(self, app):
        for path in ("/wp-admin", "/.env", "/v2/nothing"):
            app.observe("GET", path, 404, 0.001)
        text = app.registry.render()
        assert (
            'repro_oracle_requests_total{code="404",method="GET",'
            'route="other"} 3' in text
        )
        assert "wp-admin" not in text

    def test_unknown_methods_fold_into_other(self, app):
        """The transport answers any method but GET and POST with a 501
        and counts it; a client-chosen name must not become a label."""
        for method in ("PUT", "DELETE", "X" * 64):
            app.observe(method, "/healthz", 501, 0.001)
        text = app.registry.render()
        assert (
            'repro_oracle_requests_total{code="501",method="other",'
            'route="/healthz"} 3' in text
        )
        assert "PUT" not in text

    @pytest.mark.parametrize(
        "status",
        [HTTPStatus.REQUEST_URI_TOO_LONG, _NamedStatus.REQUEST_URI_TOO_LONG],
    )
    def test_enum_statuses_label_as_numbers(self, app, status):
        """http.server reports its own errors as ``HTTPStatus`` members,
        whose ``str`` is the member name before Python 3.11
        (``_NamedStatus`` reproduces that on any interpreter)."""
        assert str(_NamedStatus.REQUEST_URI_TOO_LONG) != "414"
        app.observe("GET", "/healthz", status, 0.001)
        text = app.registry.render()
        assert (
            'repro_oracle_requests_total{code="414",method="GET",'
            'route="/healthz"} 1' in text
        )
        assert 'repro_oracle_errors_total{code="414"} 1' in text
        assert "HTTPStatus" not in text

    def test_errors_counted_only_from_400(self, app):
        app.observe("GET", "/healthz", 200, 0.001)
        app.observe("GET", "/healthz", 399, 0.001)
        assert "repro_oracle_errors_total" not in app.registry.render()
        app.observe("GET", "/healthz", 400, 0.001)
        app.observe("POST", "/v1/violation", 413, 0.001)
        errors = app.registry.counter("repro_oracle_errors_total", code="413")
        assert errors.value == 1

    def test_latency_histogram_per_route(self, app):
        app.observe("GET", "/v1/violation", 200, 0.25)
        app.observe("POST", "/v1/violation", 200, 0.75)
        histogram = app.registry.histogram(
            "repro_oracle_request_seconds", route="/v1/violation"
        )
        assert histogram.count == 2
        assert histogram.sum == pytest.approx(1.0)

    def test_worker_label_on_every_series(self, oracle):
        app = OracleApp(oracle, worker_label=3)
        app.observe("GET", "/healthz", 500, 0.001)
        series = [
            line
            for line in app.registry.render().splitlines()
            if line.startswith("repro_oracle_")
        ]
        assert series
        assert all('worker="3"' in line for line in series)

    def test_quiet_app_writes_no_access_log(self, app, capsys):
        app.observe("GET", "/healthz", 200, 0.001, client="10.0.0.1")
        assert capsys.readouterr().err == ""

    def test_access_log_is_one_json_line(self, oracle, capsys):
        app = OracleApp(oracle, quiet=False, worker_label="1")
        app.observe("POST", "/v1/depth", 400, 0.0123456, client="10.0.0.1")
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "client": "10.0.0.1",
            "method": "POST",
            "path": "/v1/depth",
            "code": 400,
            "duration_ms": 12.346,
            "worker": "1",
        }
