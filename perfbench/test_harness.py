"""Tests of the benchmark harness itself (not of the program).

    python3 -m pytest perfbench/test_harness.py
"""

from __future__ import annotations

import math
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402
from tracing import Span, Tracer, covered, self_times, totals_by_name  # noqa: E402


# -- percentile choice ----------------------------------------------------


@pytest.mark.parametrize(
    "count, expected",
    [
        (9, None),
        (19, None),
        (20, 500),
        (40, 750),
        (100, 900),
        (199, 900),
        (200, 950),
        (999, 950),
        (1000, 990),
        (9999, 990),
        (10000, 999),
    ],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(count, expected):
    assert stats.tail_per_mille(count) == expected


def test_nearest_rank_percentile():
    values = list(range(1, 1001))  # 1..1000
    assert stats.percentile(values, 990) == 990
    assert stats.percentile(values, 500) == 500
    assert stats.percentile([3.0], 990) == 3.0
    # Exactly ten samples lie beyond the reported p99 of 1000.
    assert sum(v > stats.percentile(values, 990) for v in values) == 10


# -- scaling to the reference speed -------------------------------------------


def test_scale_divides_out_host_speed():
    nominal = speed.LOOPS["grid"][1]
    assert speed.scale("grid", 2.0, nominal, nominal) == pytest.approx(2.0)
    # A host at half speed: the loop and the operation both take twice
    # as long, and the scaled time stays the same.
    assert speed.scale("grid", 4.0, 2 * nominal, 2 * nominal) == pytest.approx(2.0)
    assert speed.scale("grid", 3.0, nominal, 2 * nominal) == pytest.approx(2.0)


def test_stopwatch_shares_readings_between_operations(monkeypatch):
    readings = iter([0.010, 0.020, 0.040])
    monkeypatch.setattr(speed, "reference_loop", lambda kind: next(readings))
    watch = speed.Stopwatch("python")
    assert watch.time("first", lambda x: x + 1, 1) == 2
    watch.time("second", lambda: None)
    nominal = speed.LOOPS["python"][1]
    assert watch.scaled["first"] == pytest.approx(
        watch.raw["first"] * nominal / 0.015
    )
    assert watch.scaled["second"] == pytest.approx(
        watch.raw["second"] * nominal / 0.030
    )


# -- self time on nested spans ----------------------------------------------


def test_self_time_subtracts_union_of_children():
    spans = [
        Span(0, -1, "a.root", 0.0, 10.0),
        Span(1, 0, "b.first", 1.0, 3.0),
        Span(2, 0, "b.second", 2.0, 6.0),  # overlaps its sibling
        Span(3, 2, "c.leaf", 4.0, 5.0),
        Span(4, 0, "b.late", 9.0, 12.0),  # runs past its parent's end
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(4.0 - 1.0)
    assert own[3] == pytest.approx(1.0)
    assert covered([(1, 3), (2, 6), (9, 12)], 0, 10) == pytest.approx(6.0)


def test_layer_busy_counts_outermost_spans_only():
    spans = [
        Span(0, -1, "genfunc.bound", 0.0, 4.0),
        Span(1, 0, "genfunc.multiply", 1.0, 2.0),  # same layer: nested
        Span(2, 0, "kernels.step", 2.0, 3.0),
        Span(3, 2, "genfunc.multiply", 2.2, 2.4),  # under another layer
    ]
    totals = totals_by_name(spans)
    assert totals["genfunc.bound"].busy == pytest.approx(4.0)
    assert totals["genfunc.multiply"].busy == pytest.approx(0.0)
    assert totals["genfunc.multiply"].total == pytest.approx(1.2)
    assert totals["genfunc.multiply"].calls == 2
    assert totals["genfunc.bound"].self_time == pytest.approx(2.0)
    assert totals["kernels.step"].self_time == pytest.approx(0.8)


class _Owner:
    def outer(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        return n * 2


def test_tracer_records_parents_and_restores():
    tracer = Tracer()
    tracer.wrap(_Owner, "outer", "a.outer", work=lambda a, k, r: a[1])
    tracer.wrap(_Owner, "inner", "b.inner")
    assert _Owner().outer(3) == 7
    tracer.restore()
    assert "traced" not in _Owner.outer.__code__.co_name
    spans = {span.name: span for span in tracer.spans()}
    assert spans["b.inner"].parent == spans["a.outer"].id
    assert spans["a.outer"].parent == -1
    assert spans["a.outer"].work == 3.0


def test_tracer_dump_round_trips(tmp_path):
    tracer = Tracer()
    tracer.wrap(_Owner, "inner", "b.inner", count=lambda a, k, r: {"n": 1})
    _Owner().inner(1)
    _Owner().inner(2)
    tracer.restore()
    tracer.dump(tmp_path / "trace.json")
    loaded = Tracer.load(tmp_path / "trace.json")
    assert loaded.spans() == tracer.spans()
    assert loaded.counters["n"] == 2


def test_per_layer_report_names_every_metric():
    values = layers.complete({"exact.calls": 3})
    assert list(values) == [name for name, _unit in layers.PER_LAYER]
    assert values["exact.calls"]["value"] == 3.0
    assert values["http.errors"]["value"] == 0.0


# -- open-loop lateness ---------------------------------------------------------


def test_open_loop_latency_runs_from_due_time():
    # 100 requests due every 10 ms; request 50 stalls 40 ms, and the two
    # behind it on the same schedule are sent late.
    records = []
    for i in range(100):
        due = i * 0.010
        sent = due
        if i in (51, 52):
            sent = 0.540
        done = sent + 0.001
        if i == 50:
            done = due + 0.040
        records.append((due, sent, done, True))
    summary = stats.open_loop_summary([records], limit_ms=5.0)
    assert summary["requests"] == 100
    assert summary["failed"] == 0
    assert summary["p50_ms"] == pytest.approx(1.0)
    # 51 was due at 510 ms, sent at 540 ms: 31 ms from its due time.
    assert summary["tail_per_mille"] == 900
    assert summary["late_ms"] == pytest.approx(0.0)
    assert not summary["backlog_growing"]
    latencies = sorted(
        (done - due) * 1e3 for due, _sent, done, _ok in records
    )
    assert latencies[-3:] == pytest.approx([21.0, 31.0, 40.0])


def test_open_loop_failure_misses_the_limit():
    records = [(i * 0.01, i * 0.01, i * 0.01 + 0.001, True) for i in range(200)]
    assert stats.open_loop_summary([records], limit_ms=5.0)["meets_limit"]
    records[10] = (0.1, 0.1, 0.1005, False)
    summary = stats.open_loop_summary([records], limit_ms=5.0)
    assert summary["failed"] == 1
    for i in range(11, 21):
        records[i] = (records[i][0], records[i][1], records[i][1], False)
    summary = stats.open_loop_summary([records], limit_ms=5.0)
    assert summary["tail_ms"] == math.inf
    assert not summary["meets_limit"]


def test_open_loop_growing_backlog():
    # The generator falls further behind every request.
    records = [(i * 0.001, i * 0.002, i * 0.002 + 0.0005, True) for i in range(500)]
    summary = stats.open_loop_summary([records], limit_ms=5.0)
    assert summary["backlog_growing"]
    assert not summary["meets_limit"]
    assert summary["late_ms"] > 5.0


# -- each checker rejects a perturbed answer -----------------------------------


def _table1_cells():
    from repro.analysis.exact import compute_settlement_probabilities
    from repro.core.distributions import from_adversarial_stake

    depths = [100, 200, 300, 400, 500]
    dp = compute_settlement_probabilities(from_adversarial_stake(0.3, 0.5), depths)
    return {(0.5, 0.3, k): dp[k] for k in depths}


def test_table1_checker():
    from repro.data.table1 import PAPER_TABLE1

    k500, tolerance = checks.load_k500_reference()
    cells = _table1_cells()
    assert checks.check_table1(cells, PAPER_TABLE1, k500, tolerance) == []
    low = dict(cells)
    low[(0.5, 0.3, 200)] *= 1.01
    assert len(checks.check_table1(low, PAPER_TABLE1, k500, tolerance)) == 1
    deep = dict(cells)
    deep[(0.5, 0.3, 500)] *= 1 + 1e-6
    assert len(checks.check_table1(deep, PAPER_TABLE1, k500, tolerance)) == 1


def test_mc_checkers():
    exact = {(0.1, 1.0, 10): 0.005}
    row = {"alpha": 0.1, "unique_fraction": 1.0, "depth": 10,
           "value": 0.0052, "standard_error": 0.0005, "trials": 16384,
           "reused_trials": 0, "sampled_trials": 16384}
    assert checks.check_mc_rows([row], exact) == []
    assert len(checks.check_mc_rows([dict(row, value=0.0085)], exact)) == 1
    # Two hits where twelve were expected: the row's own error is too
    # small, the binomial one at the exact value is not.
    rare = {(0.2, 0.8, 40): 7.05e-4}
    unlucky = dict(row, alpha=0.2, unique_fraction=0.8, depth=40,
                   value=2 / 16384, standard_error=8.63e-5)
    assert checks.check_mc_rows([unlucky], rare) == []
    assert len(checks.check_mc_rows([dict(unlucky, value=0.004)], rare)) == 1
    warm = dict(row, trials=32768, reused_trials=16384, sampled_trials=16384)
    assert checks.check_ledger_reuse([row], [warm], 4096) == []
    resampled = dict(warm, reused_trials=12288)
    assert len(checks.check_ledger_reuse([row], [resampled], 4096)) == 1


def test_protocol_checker():
    class Estimate:
        def __init__(self, value):
            self.value, self.trials = value, 16

    assert checks.check_no_violations("honest", [Estimate(0.0)]) == []
    assert len(checks.check_no_violations("honest", [Estimate(1 / 16)])) == 1


def test_oracle_checkers():
    served = [0.1, 2.5e-7, 1.0]
    assert checks.check_served(served, list(served)) == []
    nudged = [0.1, math.nextafter(2.5e-7, 1.0), 1.0]
    assert len(checks.check_served(nudged, served)) == 1
    assert checks.check_dominates(served, [0.05, 2.5e-7, 0.9]) == []
    assert len(checks.check_dominates(served, [0.05, 2.6e-7, 0.9])) == 1


def test_benchmark_json_lists_what_the_runs_report():
    import json

    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        layers.PER_LAYER
    )
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
