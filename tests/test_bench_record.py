"""The committed ``BENCH_engine.json`` against the bench's gate table.

``benchmarks/run_all.py`` checks every floor of the record it writes
through one table, ``bench_config.GATES``.  Loading that table here
means a committed record that lags the bench schema (a key some gate
reads is missing) or that fails a floor fails tier-1, not only the next
bench run.  ``bench_config`` imports only the standard library, so
loading it by path leaves ``sys.path`` and the benches alone.
"""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load_bench_config():
    spec = importlib.util.spec_from_file_location(
        "bench_config", ROOT / "benchmarks" / "bench_config.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GATES = _load_bench_config().GATES
RECORD = json.loads((ROOT / "BENCH_engine.json").read_text())


def test_gate_table_holds_every_floor():
    assert len(GATES) == 17
    assert len({gate.name for gate in GATES}) == len(GATES)


def test_committed_record_is_a_full_run():
    assert RECORD["quick"] is False


@pytest.mark.parametrize("gate", GATES, ids=lambda gate: gate.name)
def test_committed_record_passes_gate(gate):
    try:
        value, bound, passed = gate.check(RECORD)
    except (KeyError, TypeError) as missing:
        pytest.fail(f"BENCH_engine.json has no {gate.key!r} ({missing!r})")
    assert passed, f"{value!r} {gate.op} {bound!r}: {gate.message}"
