"""Summary statistics the benchmark reports: medians, tail percentiles
chosen by sample count, and open-loop accounting."""

from __future__ import annotations

import math
import statistics

#: Candidate tail percentiles in per-mille, highest first.
TAIL_PER_MILLE = (999, 990, 950, 900, 750, 500)
#: A tail percentile is reported only with at least this many samples
#: beyond it; fewer makes it a reading of one or two outliers.
MIN_BEYOND = 10


def tail_per_mille(count: int) -> int | None:
    """The highest candidate percentile (in per-mille) that leaves at
    least :data:`MIN_BEYOND` of ``count`` samples beyond it."""
    for per_mille in TAIL_PER_MILLE:
        if count * (1000 - per_mille) >= MIN_BEYOND * 1000:
            return per_mille
    return None


def percentile(values, per_mille: int) -> float:
    """Nearest-rank percentile of ``values`` (``per_mille`` / 10 %)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, -(-len(ordered) * per_mille // 1000))
    return ordered[rank - 1]


def median(values) -> float:
    return statistics.median(values)


def open_loop_summary(phases, limit_ms: float) -> dict:
    """Summarise the fixed-rate open-loop phases run at one rate.

    ``phases`` holds one list of ``(due, sent, done, ok)`` tuples per
    phase, in schedule order, times in seconds.  Latency runs from the
    due time, so a stall also charges the requests queued behind it;
    lateness is how long after its due time the generator sent a
    request.  A failed request counts as infinitely slow: it misses the
    latency limit.  The backlog grows when the last fifth of any phase's
    schedule was sent later than the limit.
    """
    records = [record for phase in phases for record in phase]
    if not records:
        raise ValueError("open-loop summary of no requests")
    latencies = [
        (done - due) * 1e3 if ok else math.inf
        for due, _sent, done, ok in records
    ]
    lateness = [(sent - due) * 1e3 for due, sent, _done, _ok in records]
    failed = sum(1 for *_times, ok in records if not ok)
    tail = tail_per_mille(len(records))
    tail_ms = percentile(latencies, tail) if tail is not None else math.inf

    def last_fifth_lateness(phase) -> float:
        tail = phase[-max(1, len(phase) // 5):]
        return median([(sent - due) * 1e3 for due, sent, _done, _ok in tail])

    backlog = any(last_fifth_lateness(phase) > limit_ms for phase in phases if phase)
    return {
        "requests": len(records),
        "failed": failed,
        "p50_ms": percentile(latencies, 500),
        "tail_per_mille": tail,
        "tail_ms": tail_ms,
        "late_ms": median(lateness),
        "backlog_growing": backlog,
        "meets_limit": failed == 0 and tail_ms <= limit_ms and not backlog,
    }
