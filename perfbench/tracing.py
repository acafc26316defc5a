"""An in-memory span tracer that instruments the program from outside.

:meth:`Tracer.wrap` replaces a public function or method with a wrapper
that records one span per call: an id, the id of the enclosing traced
call on the same thread (its parent), a name, start and end times, and
an optional work amount (trials sampled, events popped, ...).  Nothing
in the program is edited; :meth:`Tracer.restore` puts every original
back.  Spans stay in one flat ``array`` of doubles until the run ends.

Names read ``<layer>.<function>``.  A layer's busy time counts only its
outermost spans, so a layer function that calls another one of the same
layer is not counted twice.  Self time is a span's duration minus the
part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import pathlib
import threading
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass

_FIELDS = 6  # id, parent, name index, start, end, work


@dataclass(frozen=True)
class Span:
    id: int
    parent: int  # -1 for a root span
    name: str
    start: float
    end: float
    work: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Records spans around wrapped callables; see the module docstring."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self._records = array("d")
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object, bool]] = []
        self.counters: dict[str, float] = defaultdict(float)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _name_id(self, name: str) -> int:
        index = self._name_index.get(name)
        if index is None:
            index = self._name_index[name] = len(self.names)
            self.names.append(name)
        return index

    def wrap(self, owner, attribute: str, name: str, work=None, count=None):
        """Trace calls of ``owner.attribute`` (a module or class).

        ``work(args, kwargs, result)`` gives the span's work amount;
        ``count(args, kwargs, result)`` returns a dict added to
        :attr:`counters`.  Both run after the call, outside the span.
        """
        original = getattr(owner, attribute)
        owned = isinstance(owner, type) and attribute in vars(owner)
        name_id = self._name_id(name)
        records = self._records
        ids = self._ids
        stack_of = self._stack
        counters = self.counters

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = time.perf_counter()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                amount = work(args, kwargs, result) if work else 0.0
                # One C-level extend per span keeps the six fields of a
                # record together when server threads trace concurrently.
                records.extend((span_id, parent, name_id, start, end, amount))
                if count is not None:
                    for key, value in count(args, kwargs, result).items():
                        counters[key] += value

        setattr(owner, attribute, traced)
        self._patches.append((owner, attribute, original, owned))

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attribute, original, owned = self._patches.pop()
            if isinstance(owner, type) and not owned:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    def spans(self) -> list[Span]:
        """Every span recorded."""
        records = self._records
        return [
            Span(
                int(records[i]),
                int(records[i + 1]),
                self.names[int(records[i + 2])],
                records[i + 3],
                records[i + 4],
                records[i + 5],
            )
            for i in range(0, len(records), _FIELDS)
        ]

    def dump(self, path) -> None:
        """Write names, counters and the raw records to ``path`` (JSON)."""
        pathlib.Path(path).write_text(
            json.dumps(
                {
                    "names": self.names,
                    "counters": dict(self.counters),
                    "fields": ["id", "parent", "name", "start", "end", "work"],
                    "records": self._records.tolist(),
                }
            )
        )

    @classmethod
    def load(cls, path) -> "Tracer":
        """Read back what :meth:`dump` wrote."""
        data = json.loads(pathlib.Path(path).read_text())
        tracer = cls()
        for name in data["names"]:
            tracer._name_id(name)
        tracer.counters.update(data["counters"])
        tracer._records.extend(data["records"])
        return tracer


def covered(intervals, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    reach = start
    for low, high in sorted(intervals):
        low, high = max(low, reach), min(high, end)
        if high > low:
            total += high - low
            reach = high
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: span.duration - covered(children[span.id], span.start, span.end)
        for span in spans
    }


@dataclass
class NameTotals:
    calls: int = 0
    busy: float = 0.0  # outermost spans of the layer only
    total: float = 0.0  # every span, nested ones included
    self_time: float = 0.0
    work: float = 0.0


def totals_by_name(spans) -> dict[str, NameTotals]:
    """Per-name call count, busy, total and self time, and work."""
    by_id = {span.id: span for span in spans}
    own = self_times(spans)
    result: dict[str, NameTotals] = defaultdict(NameTotals)
    for span in spans:
        entry = result[span.name]
        entry.calls += 1
        entry.total += span.duration
        entry.self_time += own[span.id]
        entry.work += span.work
        parent = by_id.get(span.parent)
        while parent is not None and parent.layer != span.layer:
            parent = by_id.get(parent.parent)
        if parent is None:
            entry.busy += span.duration
    return result
