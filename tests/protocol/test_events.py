"""Property suite for the discrete-event core (ISSUE 7 satellite 1).

Hypothesis-generated workloads pin the :class:`EventScheduler` contract:
no event is ever lost or duplicated, served times are monotone
non-decreasing (per queue, hence per recipient in the transport), events
at the same instant drain in exact insertion order via their ``sequence``
stamp, and a schedule — including the transport's seeded jitter draws —
replays bit-identically under the same seed.

The CI profile (``tests/conftest.py``) is derandomized with a fixed
example budget, so these tests are deterministic regressions, not
fuzzing.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.protocol.events import EventScheduler
from repro.protocol.transport import TransportConfig, sample_jitters

#: Finite, non-negative event times with plenty of exact collisions
#: (integers are drawn often, and floats quantize to a coarse lattice).
times = st.one_of(
    st.integers(min_value=0, max_value=12).map(float),
    st.floats(
        min_value=0.0,
        max_value=12.0,
        allow_nan=False,
        allow_infinity=False,
    ).map(lambda t: round(t * 4) / 4),
)

#: A workload: the event times to schedule, in insertion order.
workloads = st.lists(times, min_size=0, max_size=60)

#: Interleavings: after scheduling each event, optionally drain up to a
#: bound (None = keep scheduling).
drain_bounds = st.lists(
    st.one_of(st.none(), times), min_size=0, max_size=60
)


def drain_all(scheduler: EventScheduler):
    served = []
    while len(scheduler):
        served.append(scheduler.pop())
    return served


class TestConservation:
    @given(workloads)
    def test_no_loss_no_duplication(self, schedule_times):
        """Every scheduled payload is served exactly once."""
        scheduler = EventScheduler()
        for i, t in enumerate(schedule_times):
            scheduler.schedule(t, i)
        served = drain_all(scheduler)
        assert sorted(e.payload for e in served) == list(
            range(len(schedule_times))
        )
        assert len(scheduler) == 0

    @given(workloads, drain_bounds)
    def test_conservation_under_interleaved_drains(
        self, schedule_times, bounds
    ):
        """Partial drains between schedules still conserve every event."""
        scheduler = EventScheduler()
        served = []
        for i, t in enumerate(schedule_times):
            scheduler.schedule(t, i)
            if i < len(bounds) and bounds[i] is not None:
                served.extend(scheduler.pop_until(bounds[i]))
        served.extend(drain_all(scheduler))
        assert sorted(e.payload for e in served) == list(
            range(len(schedule_times))
        )


class TestOrdering:
    @given(workloads)
    def test_served_times_monotone(self, schedule_times):
        """Service order is by time: never backwards."""
        scheduler = EventScheduler()
        for i, t in enumerate(schedule_times):
            scheduler.schedule(t, i)
        served = drain_all(scheduler)
        for earlier, later in zip(served, served[1:]):
            assert earlier.time <= later.time

    @given(workloads, drain_bounds)
    def test_served_times_monotone_across_drains(
        self, schedule_times, bounds
    ):
        """Monotonicity survives interleaved schedules and drains.

        The clock clamps late schedules forward, so even an adversarial
        interleaving cannot deliver into the past.
        """
        scheduler = EventScheduler()
        served = []
        for i, t in enumerate(schedule_times):
            scheduler.schedule(t, i)
            if i < len(bounds) and bounds[i] is not None:
                served.extend(scheduler.pop_until(bounds[i]))
        served.extend(drain_all(scheduler))
        for earlier, later in zip(served, served[1:]):
            assert earlier.time <= later.time

    @given(workloads)
    def test_equal_time_events_preserve_insertion_order(self, schedule_times):
        """Within one instant, events drain in exact insertion order."""
        scheduler = EventScheduler()
        for i, t in enumerate(schedule_times):
            scheduler.schedule(t, i)
        served = drain_all(scheduler)
        for earlier, later in zip(served, served[1:]):
            if earlier.time == later.time:
                assert earlier.sequence < later.sequence
                assert earlier.payload < later.payload  # insertion index

    @given(st.integers(min_value=1, max_value=40))
    def test_value_equal_payloads_stay_distinct(self, copies):
        """Identical (time, payload) pairs are distinct schedule entries."""
        scheduler = EventScheduler()
        for _ in range(copies):
            scheduler.schedule(1.0, "same")
        served = drain_all(scheduler)
        assert len(served) == copies
        assert [e.sequence for e in served] == sorted(
            e.sequence for e in served
        )


class TestClock:
    @given(workloads, drain_bounds)
    def test_clock_never_decreases(self, schedule_times, bounds):
        scheduler = EventScheduler()
        last = scheduler.now
        for i, t in enumerate(schedule_times):
            scheduler.schedule(t, i)
            assert scheduler.now >= last
            last = scheduler.now
            if i < len(bounds) and bounds[i] is not None:
                scheduler.pop_until(bounds[i])
                assert scheduler.now >= last
                last = scheduler.now
        while len(scheduler):
            scheduler.pop()
            assert scheduler.now >= last
            last = scheduler.now

    @given(workloads)
    def test_schedule_behind_the_clock_is_clamped(self, schedule_times):
        """A late schedule lands at ``now``, never in the past."""
        scheduler = EventScheduler()
        scheduler.pop_until(50.0)  # advance the clock past every time
        for i, t in enumerate(schedule_times):
            event = scheduler.schedule(t, i)
            assert event.time == 50.0
        for event in drain_all(scheduler):
            assert event.time == 50.0

    def test_pop_until_bound_is_exclusive(self):
        """Slot semantics: an event at exactly the bound stays pending."""
        scheduler = EventScheduler()
        scheduler.schedule(2.0, "at-bound")
        scheduler.schedule(1.999, "inside")
        assert [e.payload for e in scheduler.pop_until(2.0)] == ["inside"]
        assert len(scheduler) == 1
        assert [e.payload for e in scheduler.pop_until(3.0)] == ["at-bound"]

    def test_rejects_non_finite_times(self):
        scheduler = EventScheduler()
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                scheduler.schedule(bad, None)
            with pytest.raises(ValueError):
                scheduler.pop_until(bad)

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventScheduler().pop()
        assert EventScheduler().peek_time() is None


class TestReplay:
    @given(workloads, drain_bounds)
    def test_schedule_replays_bit_identically(self, schedule_times, bounds):
        """The same call sequence yields the same served sequence, exactly."""

        def execute():
            scheduler = EventScheduler()
            served = []
            for i, t in enumerate(schedule_times):
                scheduler.schedule(t, i)
                if i < len(bounds) and bounds[i] is not None:
                    served.extend(scheduler.pop_until(bounds[i]))
            served.extend(drain_all(scheduler))
            return [(e.time, e.sequence, e.payload) for e in served]

        assert execute() == execute()

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from(["uniform", "exponential"]),
        st.integers(min_value=1, max_value=30),
    )
    def test_seeded_jitter_schedule_replays_bit_identically(
        self, seed, jitter, draws
    ):
        """Stochastic delays re-run bit-identically under the same seed.

        This is the full transport recipe: sample from a seeded
        generator, schedule at clock + draw — the scheduler itself stays
        deterministic, so the whole schedule is a pure function of the
        seed.
        """
        config = TransportConfig(
            jitter=jitter, jitter_scale=0.5, jitter_cap=2.0
        )

        def execute():
            generator = np.random.default_rng(seed)
            scheduler = EventScheduler()
            delays = sample_jitters(config, generator, draws)
            for i, delay in enumerate(delays):
                assert 0.0 <= delay <= config.exponential_cap
                scheduler.schedule(float(i % 5) + delay, i)
            return [
                (e.time, e.sequence, e.payload) for e in drain_all(scheduler)
            ]

        first = execute()
        assert first == execute()
        assert len(first) == draws
