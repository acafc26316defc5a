"""Observability spine: in-process metrics and span tracing.

Two independent, individually-toggled facilities:

* :mod:`repro.obs.metrics` — a thread-safe registry of counters,
  gauges, and fixed-bucket histograms with a Prometheus text-exposition
  encoder.  Disabled by default: the module-level accessors return
  shared no-op singletons until :func:`repro.obs.metrics.enable` is
  called, so instrumented hot paths cost one global read when nobody is
  watching.
* :mod:`repro.obs.trace` — a lightweight span API
  (``with span("runner.wave", chunk=i):``) writing JSONL events with
  monotonic timestamps, summarised by ``python -m repro.obs.report``.

The telemetry contract (asserted by ``tests/obs/test_overhead.py``):
instrumentation consumes **zero RNG**, never enters cache keys or
ledger schemas, and instrumented runs are bit-identical to
uninstrumented runs on every execution backend.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.obs.metrics": ("MetricsRegistry",),
        "repro.obs.trace": ("span",),
    },
    submodules=("metrics", "trace"),
)
