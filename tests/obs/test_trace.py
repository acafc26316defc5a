"""Span tracing: event schema, nesting, PID discipline, the report CLI."""

import json
import os
import threading
from unittest import mock

import pytest

from repro.obs.report import load_events, main, render_table, render_tree
from repro.obs.trace import is_tracing, span, tracing_to


def _events(path):
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


class TestSpan:
    def test_disabled_span_is_a_noop(self, tmp_path):
        assert not is_tracing()
        with span("anything"):  # must not raise or write anywhere
            pass

    def test_event_schema(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with tracing_to(path):
            with span("runner.wave", wave=3, chunks=8):
                pass
        (event,) = _events(path)
        assert event["name"] == "runner.wave"
        assert event["id"] == 0
        assert event["parent"] is None
        assert event["depth"] == 0
        assert event["start"] >= 0
        assert event["duration"] >= 0
        assert event["thread"] == threading.current_thread().name
        assert event["attrs"] == {"wave": 3, "chunks": 8}
        assert "error" not in event

    def test_nesting_links_parent_and_depth(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with tracing_to(path):
            with span("outer"):
                with span("inner"):
                    pass
        inner, outer = _events(path)  # inner exits (and writes) first
        assert inner["name"] == "inner"
        assert inner["parent"] == outer["id"]
        assert inner["depth"] == 1
        assert outer["parent"] is None

    def test_error_is_recorded_and_reraised(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with tracing_to(path):
            with pytest.raises(ValueError):
                with span("doomed"):
                    raise ValueError("boom")
        (event,) = _events(path)
        assert event["error"] == "ValueError"

    def test_non_json_attrs_are_stringified(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with tracing_to(path):
            with span("odd", value={1, 2}):
                pass
        (event,) = _events(path)
        assert isinstance(event["attrs"]["value"], str)

    def test_forked_child_pid_never_writes(self, tmp_path):
        """A sink inherited across fork must not be written by the child."""
        path = tmp_path / "t.jsonl"
        with tracing_to(path):
            with mock.patch("repro.obs.trace.os.getpid",
                            return_value=os.getpid() + 1):
                assert not is_tracing()
                with span("child-side"):
                    pass
            with span("parent-side"):
                pass
        (event,) = _events(path)
        assert event["name"] == "parent-side"

    def test_threads_have_independent_stacks(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with tracing_to(path):
            with span("main-outer"):
                done = threading.Event()

                def worker():
                    with span("worker-root"):
                        pass
                    done.set()

                threading.Thread(target=worker).start()
                assert done.wait(5)
        events = {event["name"]: event for event in _events(path)}
        # The worker's span is a root in *its* thread, not a child of
        # the main thread's open span.
        assert events["worker-root"]["parent"] is None
        assert events["worker-root"]["depth"] == 0

    def test_tracing_to_restores_previous_sink(self, tmp_path):
        first = tmp_path / "first.jsonl"
        second = tmp_path / "second.jsonl"
        with tracing_to(first):
            with tracing_to(second):
                with span("inner"):
                    pass
            with span("outer-resumed"):
                pass
        assert [e["name"] for e in _events(second)] == ["inner"]
        assert [e["name"] for e in _events(first)] == ["outer-resumed"]


class TestReport:
    def _write_trace(self, path):
        with tracing_to(path):
            with span("runner.run"):
                for _ in range(3):
                    with span("runner.chunk"):
                        pass

    def test_load_events_skips_torn_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        self._write_trace(path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"torn": ')
        events = load_events(str(path))
        assert len(events) == 4

    def test_table_has_percentile_columns(self, tmp_path):
        path = tmp_path / "t.jsonl"
        self._write_trace(path)
        table = render_table(load_events(str(path)))
        assert "p50_ms" in table and "p99_ms" in table
        assert "runner.chunk" in table and "runner.run" in table
        # chunk appears with its count of 3
        chunk_row = next(
            line for line in table.splitlines() if "runner.chunk" in line
        )
        assert " 3 " in f" {chunk_row} "

    def test_tree_indents_children(self, tmp_path):
        path = tmp_path / "t.jsonl"
        self._write_trace(path)
        tree = render_tree(load_events(str(path)))
        assert "runner.run  x1" in tree
        assert "\n  runner.chunk  x3" in tree

    def test_main_empty_trace(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main([str(path)]) == 0
        assert "no spans recorded" in capsys.readouterr().out

    def test_main_missing_file(self, tmp_path, capsys):
        assert main([str(tmp_path / "absent.jsonl")]) == 2
        assert "error" in capsys.readouterr().err

    def test_main_prints_table_and_tree(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        self._write_trace(path)
        assert main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "span" in out and "runner.chunk" in out
        assert main(["--tree", str(path)]) == 0
        out = capsys.readouterr().out
        assert "p50_ms" not in out and "runner.chunk" in out
