"""Thread-safe in-process metrics with Prometheus text exposition.

Three instrument kinds, the classic trio:

* :class:`Counter` — a monotonically increasing float (``inc``);
* :class:`Gauge` — a float that can move both ways (``set``/``inc``);
* :class:`Histogram` — fixed upper-bound buckets plus ``sum`` and
  ``count`` (``observe``), cumulative in the Prometheus convention.

Metrics live in a :class:`MetricsRegistry` and are addressed by a
*family name* plus an optional label set::

    registry = MetricsRegistry()
    registry.counter("repro_runner_trials_total", source="sampled").inc(4096)
    registry.histogram("repro_rpc_seconds", op="task").observe(0.012)
    print(registry.render())          # Prometheus text format

Module-level switchboard
------------------------

Engine code does not thread a registry through every call site.  It
uses the module-level accessors (:func:`counter`, :func:`gauge`,
:func:`histogram`), which resolve against the *active* registry —
``None`` by default, in which case they return shared **no-op
singletons**.  The disabled hot path is therefore one global read and
an ``is None`` test; no locks, no allocation, no branching in the
caller.  :func:`enable` installs a registry (creating one on demand),
:func:`disable` removes it, and :func:`enabled_registry` context-manages
the pair for tests.

Thread safety: every instrument owns one ``threading.Lock`` taken only
for the few arithmetic operations of an update, so concurrent chunk
completions (process-pool done-callbacks, distributed client threads,
HTTP handler threads) never lose increments — pinned by
``tests/obs/test_metrics.py``.

The telemetry contract: nothing in this module reads or advances any
RNG, and metric state never feeds cache keys, ledger schemas, or
estimates — metrics are write-only from the engine's point of view.
"""

from __future__ import annotations

import contextlib
import re
import threading
from bisect import bisect_left

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "active",
    "counter",
    "disable",
    "enable",
    "enabled_registry",
    "gauge",
    "histogram",
]

#: Default histogram upper bounds: request/chunk latencies in seconds,
#: half-millisecond floor to ten-second ceiling (+Inf is implicit).
DEFAULT_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_NAME_PATTERN = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_PATTERN = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*$")


def _escape(value: str) -> str:
    """Escape a label value for the text exposition format."""
    return (
        str(value)
        .replace("\\", r"\\")
        .replace("\n", r"\n")
        .replace('"', r"\"")
    )


def _labels_suffix(labels: tuple[tuple[str, str], ...], extra: str = "") -> str:
    parts = [f'{key}="{_escape(value)}"' for key, value in labels]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A value that can go up and down (or be set outright)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket histogram: per-bucket counts plus sum and count.

    ``bounds`` are the finite upper bounds in increasing order; the
    implicit ``+Inf`` bucket catches everything above the last bound.
    ``snapshot()`` returns *cumulative* bucket counts (the Prometheus
    ``le`` convention) so the encoder can emit them directly.
    """

    __slots__ = ("_lock", "bounds", "_counts", "_sum", "_count")

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(float(bound) for bound in bounds)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError(
                f"histogram bounds must be strictly increasing, got {bounds}"
            )
        self._lock = threading.Lock()
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def snapshot(self) -> tuple[list[int], float, int]:
        """(cumulative bucket counts incl. +Inf, sum, count) — atomic."""
        with self._lock:
            cumulative, running = [], 0
            for bucket in self._counts:
                running += bucket
                cumulative.append(running)
            return cumulative, self._sum, self._count


class _NullCounter:
    """Shared do-nothing stand-in used while metrics are disabled."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    value = 0.0


class _NullGauge:
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    value = 0.0


class _NullHistogram:
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass

    count = 0
    sum = 0.0


NULL_COUNTER = _NullCounter()
NULL_GAUGE = _NullGauge()
NULL_HISTOGRAM = _NullHistogram()

_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class _Family:
    """One metric name: its type, help string, and per-label children."""

    __slots__ = ("name", "kind", "help", "bounds", "children")

    def __init__(self, name: str, kind: str, help: str, bounds) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.bounds = bounds
        self.children: dict[tuple[tuple[str, str], ...], object] = {}


class MetricsRegistry:
    """A named collection of metric families with text exposition.

    Families are created on first access and re-used afterwards; asking
    for an existing name with a different instrument kind is a bug and
    raises.  Label values are coerced to strings (keep cardinality
    bounded: label by route, backend, or worker id — never by trial or
    query values).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}

    def _instrument(self, kind: str, name: str, help: str, bounds, labels):
        if not _NAME_PATTERN.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for key in labels:
            if not _LABEL_PATTERN.match(key):
                raise ValueError(f"invalid label name {key!r}")
        label_key = tuple(
            (key, str(value)) for key, value in sorted(labels.items())
        )
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(name, kind, help, bounds)
                self._families[name] = family
            elif family.kind != kind:
                raise ValueError(
                    f"metric {name!r} is a {family.kind}, not a {kind}"
                )
            child = family.children.get(label_key)
            if child is None:
                child = (
                    Histogram(family.bounds)
                    if kind == "histogram"
                    else _TYPES[kind]()
                )
                family.children[label_key] = child
            return child

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        return self._instrument("counter", name, help, None, labels)

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        return self._instrument("gauge", name, help, None, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        **labels,
    ) -> Histogram:
        return self._instrument("histogram", name, help, buckets, labels)

    def render(self) -> str:
        """The registry in the Prometheus text exposition format."""
        lines: list[str] = []
        with self._lock:
            families = [
                (family, dict(family.children))
                for _, family in sorted(self._families.items())
            ]
        for family, children in families:
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for label_key in sorted(children):
                child = children[label_key]
                if family.kind == "histogram":
                    cumulative, total, count = child.snapshot()
                    bounds = [*map(str, child.bounds), "+Inf"]
                    for bound, value in zip(bounds, cumulative):
                        suffix = _labels_suffix(
                            label_key, f'le="{bound}"'
                        )
                        lines.append(
                            f"{family.name}_bucket{suffix} {value}"
                        )
                    suffix = _labels_suffix(label_key)
                    lines.append(f"{family.name}_sum{suffix} {total:g}")
                    lines.append(f"{family.name}_count{suffix} {count}")
                else:
                    suffix = _labels_suffix(label_key)
                    lines.append(f"{family.name}{suffix} {child.value:g}")
        return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------------
# Module-level switchboard (the engine's instrumentation surface)
# ----------------------------------------------------------------------

_ACTIVE: MetricsRegistry | None = None


def enable(registry: MetricsRegistry | None = None) -> MetricsRegistry:
    """Install ``registry`` (a fresh one when ``None``) as the active
    sink of the module-level accessors; returns it."""
    global _ACTIVE
    _ACTIVE = registry if registry is not None else MetricsRegistry()
    return _ACTIVE


def disable() -> None:
    """Detach the active registry; accessors return no-ops again."""
    global _ACTIVE
    _ACTIVE = None


def active() -> MetricsRegistry | None:
    """The currently installed registry, or ``None`` when disabled."""
    return _ACTIVE


@contextlib.contextmanager
def enabled_registry(registry: MetricsRegistry | None = None):
    """Enable metrics for a ``with`` block, restoring the prior state."""
    previous = _ACTIVE
    installed = enable(registry)
    try:
        yield installed
    finally:
        enable(previous) if previous is not None else disable()


def counter(name: str, help: str = "", **labels):
    """The named counter of the active registry, or a shared no-op."""
    registry = _ACTIVE
    if registry is None:
        return NULL_COUNTER
    return registry.counter(name, help, **labels)


def gauge(name: str, help: str = "", **labels):
    """The named gauge of the active registry, or a shared no-op."""
    registry = _ACTIVE
    if registry is None:
        return NULL_GAUGE
    return registry.gauge(name, help, **labels)


def histogram(
    name: str,
    help: str = "",
    buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    **labels,
):
    """The named histogram of the active registry, or a shared no-op."""
    registry = _ACTIVE
    if registry is None:
        return NULL_HISTOGRAM
    return registry.histogram(name, help, buckets, **labels)
