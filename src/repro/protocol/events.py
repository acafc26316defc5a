"""A deterministic discrete-event queue with a monotone clock.

No simulation path uses it: the WAN
:class:`~repro.protocol.transport.Transport` books its deliveries into
the slot buckets of :class:`~repro.protocol.network.NetworkModel`, since
a delivery's continuous time is only ever observed through its slot.
The scheduler stays as a standalone, property-tested primitive while
``perfbench/layers.py`` still wraps its ``pop_until`` and the ``wan``
record of ``benchmarks/run_all.py`` still times it.  Its contract:

* **Stable ordering.**  Events are served in ``(time, sequence)`` order,
  where ``sequence`` is a monotone stamp assigned at schedule time.
  Two events at the same instant therefore drain in exact insertion
  order, and value-equal payloads are still distinct schedule entries.
* **Monotone event clock.**  ``now`` never decreases: popping an event
  advances the clock to its time, draining up to a bound advances the
  clock to the bound, and scheduling *behind* the clock is clamped to
  ``now`` (a message cannot be delivered in the past — it is delivered
  at the next opportunity instead, exactly the behaviour of the
  slot-bucketed :class:`~repro.protocol.network.NetworkModel` when the
  adversary injects into an already-drained slot).
* **Determinism.**  The scheduler itself draws no randomness.
  Stochastic delays are sampled by the caller from seeded generators
  *before* scheduling, so a schedule is a pure function of the call
  sequence — bit-identical under re-run with the same seed.

``tests/protocol/test_events.py`` pins all of this down with
hypothesis-generated workloads: no event is ever lost or duplicated,
pop times are monotone non-decreasing, equal-time events preserve
insertion order, and schedules replay bit-identically.
"""

from __future__ import annotations

import heapq
import math
from typing import NamedTuple

__all__ = ["Event", "EventScheduler"]


class Event(NamedTuple):
    """One scheduled event: ``payload`` fires at ``time``.

    ``sequence`` is the scheduler's monotone insertion stamp — the
    tie-break that keeps equal-time events in insertion order and
    value-equal payloads apart.  The scheduler's heap holds the events
    themselves: ``(time, sequence)`` is unique, so tuple order never
    reaches the payload.
    """

    time: float
    sequence: int
    payload: object


class EventScheduler:
    """A deterministic event queue with a monotone clock.

    The heap is ordered by ``(time, sequence)`` only — payloads are
    never compared, so any object (including unorderable ones) can be
    scheduled.  See the module docstring for the full contract.
    """

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._sequence = 0
        self._now = 0.0

    @property
    def now(self) -> float:
        """The event clock: the latest time served so far."""
        return self._now

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, time: float, payload: object) -> Event:
        """Enqueue ``payload`` at ``time``; returns the stamped event.

        ``time`` must be finite.  Times behind the clock are clamped to
        ``now`` (delivery at the next opportunity, never in the past).
        """
        time = float(time)
        if not math.isfinite(time):
            raise ValueError(f"event time must be finite, got {time!r}")
        if time < self._now:
            time = self._now
        self._sequence += 1
        event = Event(time, self._sequence, payload)
        heapq.heappush(self._heap, event)
        return event

    def peek_time(self) -> float | None:
        """The earliest pending event time, or ``None`` when empty."""
        return self._heap[0][0] if self._heap else None

    def pop(self) -> Event:
        """Serve the earliest event and advance the clock to its time."""
        if not self._heap:
            raise IndexError("pop from an empty EventScheduler")
        event = heapq.heappop(self._heap)
        self._now = max(self._now, event.time)
        return event

    def advance(self, bound: float) -> bool:
        """``pop_until(bound)`` for a queue with nothing due before ``bound``.

        When no event has ``time < bound``, advances the clock to
        ``bound`` exactly as that drain would and returns ``True``;
        otherwise changes nothing and returns ``False``.  Callers skip
        idle drains through it without breaking the clock contract.
        """
        if self._heap and self._heap[0][0] < bound:
            return False
        if bound > self._now:
            self._now = float(bound)
        return True

    def pop_until(self, bound: float) -> list[Event]:
        """Serve every event with ``time < bound``, in schedule order.

        Advances the clock to ``bound`` even when nothing is due —
        draining *is* observing the interval, so later schedules cannot
        slip behind it.  The bound is exclusive: an event at exactly
        ``bound`` stays pending (slot semantics — the transport drains
        slot ``t`` with bound ``t + 1``).
        """
        bound = float(bound)
        if not math.isfinite(bound):
            raise ValueError(f"drain bound must be finite, got {bound!r}")
        served: list[Event] = []
        while self._heap and self._heap[0][0] < bound:
            served.append(heapq.heappop(self._heap))
        self._now = max(self._now, bound)
        return served
