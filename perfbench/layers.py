"""Per-layer metrics: which public functions the traced run wraps, and
how their spans become the per-layer numbers.

Each wrapped function gets a span name ``<layer>.<function>``.  Where a
module imported a function by name (``from x import f``), the copy in
the importing module is wrapped too, since that is the one it calls.
Per-layer values are per repetition of the workload's job; layers a
workload does not run report 0.  What each metric is expected to move
is tabulated in ``perfbench/README.md``.
"""

from __future__ import annotations

import importlib

#: Every per-layer metric, in report order, with its unit.
PER_LAYER = (
    ("exact.calls", "count"),
    ("exact.busy_s", "s"),
    ("exact.s_per_step", "s"),
    ("kernels.settlement_steps", "count"),
    ("kernels.settlement_step_s", "s"),
    ("scenarios.sample_s", "s"),
    ("scenarios.trials_sampled", "count"),
    ("kernels.estimate_s", "s"),
    ("runner.waves", "count"),
    ("runner.chunks_sampled", "count"),
    ("runner.chunks_reused", "count"),
    ("runner.self_s", "s"),
    ("cache.get_chunks_s", "s"),
    ("cache.put_chunks_s", "s"),
    ("cache.ledger_reuse_ratio", "ratio"),
    ("protocol.simulation_s", "s"),
    ("protocol.trials", "count"),
    ("leader.eligibility_calls", "count"),
    ("leader.eligibility_s", "s"),
    ("crypto.hash_calls", "count"),
    ("crypto.hash_s", "s"),
    ("network.due_s", "s"),
    ("transport.due_s", "s"),
    ("events.pop_until_s", "s"),
    ("events.events", "count"),
    ("tiebreak.select_chain_calls", "count"),
    ("tiebreak.select_chain_s", "s"),
    ("node.receive_calls", "count"),
    ("tables.build_s", "s"),
    ("genfunc.tail_s", "s"),
    ("store.save_s", "s"),
    ("store.load_s", "s"),
    ("service.scalar_us", "us"),
    ("service.batch_us_per_query", "us"),
    ("app.handle_self_us", "us"),
    ("http.transport_ms", "ms"),
    ("http.requests", "count"),
    ("http.errors", "count"),
    ("loadgen.late_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
)


def _k_max(args, kwargs, result):
    return float(max(args[1]))


def _size(args, kwargs, result):
    return float(args[1])


def _length(args, kwargs, result):
    return float(len(result)) if result is not None else 0.0


def _put_size(args, kwargs, result):
    return float(len(args[2]))


def _body_length(args, kwargs, result):
    body = args[3] if len(args) > 3 else kwargs.get("body", b"")
    return float(len(body))


def _run_report(args, kwargs, result):
    report = args[0].last_report
    if report is None:
        return {}
    return {
        "runner.waves": report.waves,
        "runner.chunks_sampled": report.sampled_chunks,
        "runner.chunks_reused": report.reused_chunks,
    }


#: ``(module, class or None, attribute, span name, work, count)`` for
#: the benchmark's own process.
IN_PROCESS = (
    ("repro.analysis.exact", None, "compute_settlement_probabilities",
     "exact.compute_settlement_probabilities", _k_max, None),
    ("repro.oracle.tables", None, "compute_settlement_probabilities",
     "exact.compute_settlement_probabilities", _k_max, None),
    ("repro.analysis.exact", None, "settlement_adversarial_step",
     "kernels.settlement_adversarial_step", None, None),
    ("repro.analysis.exact", None, "settlement_honest_step",
     "kernels.settlement_honest_step", None, None),
    ("repro.engine.scenarios", "Scenario", "sample_batch",
     "scenarios.sample_batch", _size, None),
    ("repro.engine.kernels", None, "joint_final_states",
     "kernels.joint_final_states", None, None),
    ("repro.engine.kernels", None, "margin_trajectories",
     "kernels.margin_trajectories", None, None),
    ("repro.engine.runner", "ExperimentRunner", "run_until",
     "runner.run_until", None, _run_report),
    ("repro.engine.cache", "ResultCache", "get_chunks",
     "cache.get_chunks", _length, None),
    ("repro.engine.cache", "ResultCache", "put_chunks",
     "cache.put_chunks", _put_size, None),
    ("repro.protocol.simulation", "Simulation", "run",
     "simulation.run", None, None),
    ("repro.protocol.leader", "VrfLeaderElection", "eligibility",
     "leader.eligibility", None, None),
    ("repro.protocol.crypto", None, "hash_data",
     "crypto.hash_data", None, None),
    ("repro.protocol.block", None, "hash_data",
     "crypto.hash_data", None, None),
    ("repro.protocol.network", "NetworkModel", "due",
     "network.due", None, None),
    ("repro.protocol.transport", "Transport", "due",
     "transport.due", None, None),
    ("repro.protocol.events", "EventScheduler", "pop_until",
     "events.pop_until", _length, None),
    ("repro.protocol.node", None, "select_chain",
     "tiebreak.select_chain", None, None),
    ("repro.protocol.node", "HonestNode", "receive",
     "node.receive", None, None),
    ("repro.oracle.tables", None, "build_tables",
     "tables.build_tables", None, None),
    ("repro.analysis.genfunc", None, "bound1_dominating_series",
     "genfunc.bound1_dominating_series", None, None),
    ("repro.analysis.genfunc", None, "stationary_prefix_correction",
     "genfunc.stationary_prefix_correction", None, None),
    ("repro.analysis.genfunc", None, "series_multiply",
     "genfunc.series_multiply", None, None),
    ("repro.analysis.genfunc", None, "probability_tail",
     "genfunc.probability_tail", None, None),
    ("repro.oracle.store", None, "save_tables",
     "store.save_tables", None, None),
    ("repro.oracle.store", None, "load_tables",
     "store.load_tables", None, None),
)

#: The same, for the oracle server child (see ``traced_server.py``).
SERVER = (
    ("repro.oracle.app", "OracleApp", "handle",
     "app.handle", _body_length, None),
    ("repro.oracle.service", "SettlementOracle", "violation_probability",
     "service.violation_probability", None, None),
    ("repro.oracle.service", "SettlementOracle", "violation_probabilities",
     "service.violation_probabilities", _length, None),
    ("repro.oracle.store", None, "load_tables",
     "store.load_tables", None, None),
)


def instrument(tracer, plan) -> None:
    """Wrap every target of ``plan`` (``IN_PROCESS`` or ``SERVER``)."""
    for module_name, class_name, attribute, name, work, count in plan:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        tracer.wrap(owner, attribute, name, work=work, count=count)


def _busy(totals, *names) -> float:
    return sum(totals[n].busy for n in names if n in totals)


def _calls(totals, *names) -> float:
    return float(sum(totals[n].calls for n in names if n in totals))


def _work(totals, *names) -> float:
    return sum(totals[n].work for n in names if n in totals)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def in_process_metrics(totals, counters, reps: int) -> dict[str, float]:
    """Per-layer metrics from the benchmark process's spans, per rep."""
    exact = "exact.compute_settlement_probabilities"
    steps = ("kernels.settlement_adversarial_step",
             "kernels.settlement_honest_step")
    sampled = counters.get("runner.chunks_sampled", 0.0)
    reused = counters.get("runner.chunks_reused", 0.0)
    genfunc = [n for n in totals if n.startswith("genfunc.")]
    runner = totals.get("runner.run_until")
    values = {
        "exact.calls": _calls(totals, exact),
        "exact.busy_s": _busy(totals, exact),
        "kernels.settlement_steps": _calls(totals, steps[0]),
        "kernels.settlement_step_s": _busy(totals, *steps),
        "scenarios.sample_s": _busy(totals, "scenarios.sample_batch"),
        "scenarios.trials_sampled": _work(totals, "scenarios.sample_batch"),
        "kernels.estimate_s": _busy(
            totals, "kernels.joint_final_states", "kernels.margin_trajectories"
        ),
        "runner.waves": counters.get("runner.waves", 0.0),
        "runner.chunks_sampled": sampled,
        "runner.chunks_reused": reused,
        "runner.self_s": runner.self_time if runner else 0.0,
        "cache.get_chunks_s": _busy(totals, "cache.get_chunks"),
        "cache.put_chunks_s": _busy(totals, "cache.put_chunks"),
        "protocol.simulation_s": _busy(totals, "simulation.run"),
        "protocol.trials": _calls(totals, "simulation.run"),
        "leader.eligibility_calls": _calls(totals, "leader.eligibility"),
        "leader.eligibility_s": _busy(totals, "leader.eligibility"),
        "crypto.hash_calls": _calls(totals, "crypto.hash_data"),
        "crypto.hash_s": _busy(totals, "crypto.hash_data"),
        "network.due_s": _busy(totals, "network.due"),
        "transport.due_s": _busy(totals, "transport.due"),
        "events.pop_until_s": _busy(totals, "events.pop_until"),
        "events.events": _work(totals, "events.pop_until"),
        "tiebreak.select_chain_calls": _calls(totals, "tiebreak.select_chain"),
        "tiebreak.select_chain_s": _busy(totals, "tiebreak.select_chain"),
        "node.receive_calls": _calls(totals, "node.receive"),
        "tables.build_s": _busy(totals, "tables.build_tables"),
        "genfunc.tail_s": _busy(totals, *genfunc),
        "store.save_s": _busy(totals, "store.save_tables"),
        "store.load_s": _busy(totals, "store.load_tables"),
    }
    values = {name: value / reps for name, value in values.items()}
    # Ratios are per rep already.
    values["exact.s_per_step"] = _ratio(
        _busy(totals, exact), _work(totals, exact)
    )
    values["cache.ledger_reuse_ratio"] = _ratio(reused, sampled + reused)
    return values


def server_metrics(totals) -> dict[str, float]:
    """Per-request service and app costs from the server child's spans."""
    scalar = totals.get("service.violation_probability")
    batch = totals.get("service.violation_probabilities")
    handle = totals.get("app.handle")
    return {
        "service.scalar_us": _ratio(scalar.total, scalar.calls) * 1e6
        if scalar else 0.0,
        "service.batch_us_per_query": _ratio(batch.total, batch.work) * 1e6
        if batch else 0.0,
        "app.handle_self_us": _ratio(handle.self_time, handle.calls) * 1e6
        if handle else 0.0,
        "http.requests": float(handle.calls) if handle else 0.0,
    }


def complete(values: dict[str, float]) -> dict[str, dict]:
    """Every per-layer metric with its unit; absent layers report 0."""
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in PER_LAYER
    }
