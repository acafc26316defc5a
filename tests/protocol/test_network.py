"""The Δ-bounded rushing-adversary network (axioms A0, A4Δ)."""

import pytest

from repro.protocol.block import Block
from repro.protocol.network import NetworkModel


def make_block(slot: int, tag: str) -> Block:
    return Block(slot=slot, parent_hash="p", issuer=tag)


class TestSynchronousDelivery:
    def test_broadcast_reaches_everyone_same_slot(self):
        net = NetworkModel(["a", "b"], delta=0)
        block = make_block(3, "x")
        net.broadcast(block, sent_slot=3)
        assert net.due("a", 3) == [block]
        assert net.due("b", 3) == [block]
        assert net.pending_count() == 0

    def test_delay_beyond_delta_rejected(self):
        net = NetworkModel(["a"], delta=0)
        with pytest.raises(ValueError):
            net.broadcast(make_block(1, "x"), 1, delays={"a": 1})

    def test_messages_not_due_early(self):
        net = NetworkModel(["a"], delta=2)
        net.broadcast(make_block(1, "x"), 1, delays={"a": 2})
        assert net.due("a", 2) == []
        assert len(net.due("a", 3)) == 1


class TestDeltaDelivery:
    def test_per_recipient_delays(self):
        net = NetworkModel(["a", "b"], delta=3)
        block = make_block(1, "x")
        net.broadcast(block, 1, delays={"a": 0, "b": 3})
        assert net.due("a", 1) == [block]
        assert net.due("b", 1) == []
        assert net.due("b", 4) == [block]

    def test_negative_delay_rejected(self):
        net = NetworkModel(["a"], delta=3)
        with pytest.raises(ValueError):
            net.broadcast(make_block(1, "x"), 1, delays={"a": -1})

    def test_rejected_broadcast_books_nothing(self):
        """Every hold is checked before any recipient is booked."""
        net = NetworkModel(["a", "b"], delta=1)
        with pytest.raises(ValueError, match="delay 2 outside"):
            net.broadcast(make_block(1, "x"), 1, delays={"a": 0, "b": 2})
        assert net.pending_count() == 0
        assert net.realized_delays == []


class TestRushingAdversary:
    def test_injection_unconstrained_by_delta(self):
        net = NetworkModel(["a"], delta=0)
        late = make_block(1, "withheld")
        net.inject(late, "a", deliver_slot=9)
        assert net.due("a", 8) == []
        assert net.due("a", 9) == [late]

    def test_injection_to_a_stranger_is_refused(self):
        """A block for a party the network does not serve would stay
        pending forever; it is refused instead."""
        net = NetworkModel(["a"], delta=0)
        with pytest.raises(KeyError):
            net.inject(make_block(1, "x"), "stranger", 1)
        assert net.pending_count() == 0

    def test_injection_targets_single_recipient(self):
        net = NetworkModel(["a", "b"], delta=0)
        net.inject(make_block(1, "x"), "a", 1)
        assert len(net.due("a", 1)) == 1
        assert net.due("b", 1) == []

    def test_injected_blocks_rush_ahead(self):
        """Default injection priority −1 beats honest broadcasts."""
        net = NetworkModel(["a"], delta=0)
        honest = make_block(2, "honest")
        adversarial = make_block(2, "adv")
        net.broadcast(honest, 2)
        net.inject(adversarial, "a", 2)
        assert net.due("a", 2) == [adversarial, honest]

    def test_priority_ordering_controls_sequence(self):
        net = NetworkModel(["a"], delta=0)
        first = make_block(1, "first")
        second = make_block(1, "second")
        net.broadcast(first, 1, priorities={"a": 5})
        net.broadcast(second, 1, priorities={"a": 1})
        assert net.due("a", 1) == [second, first]

    def test_equal_priority_preserves_broadcast_order(self):
        net = NetworkModel(["a"], delta=0)
        blocks = [make_block(1, f"b{i}") for i in range(4)]
        for block in blocks:
            net.broadcast(block, 1)
        assert net.due("a", 1) == blocks


class TestSchedulerOrdering:
    """Regression suite for the equality-aliased ordering bug.

    The old scheduler sorted due messages by ``(priority,
    queue.index(delivery))``; ``Delivery`` is an ``eq=True`` dataclass,
    so ``list.index`` matched by *value* and value-equal duplicates all
    aliased to the first match's index — jumping the queue ahead of
    messages enqueued between them — while each ``due()`` call rescanned
    and ``remove()``d through the whole flat queue.
    """

    def test_value_equal_duplicates_keep_enqueue_order(self):
        # Two value-equal broadcasts of the same block at equal priority
        # with a distinct block between them: the old index-aliased sort
        # returned [dup, dup, other]; enqueue order is [dup, other, dup].
        net = NetworkModel(["a"], delta=0)
        dup = make_block(1, "dup")
        other = make_block(1, "other")
        net.broadcast(dup, 1)
        net.broadcast(other, 1)
        net.broadcast(dup, 1)
        assert net.due("a", 1) == [dup, other, dup]

    def test_adversarial_inject_interleavings(self):
        """Injected duplicates interleaved with broadcasts drain in
        (priority, enqueue order) exactly."""
        net = NetworkModel(["a"], delta=0)
        h1 = make_block(2, "h1")
        h2 = make_block(2, "h2")
        adv = make_block(2, "adv")
        net.broadcast(h1, 2)
        net.inject(adv, "a", 2)               # priority −1: rushes ahead
        net.broadcast(h2, 2)
        net.inject(adv, "a", 2, priority=0)   # value-equal, honest priority
        assert net.due("a", 2) == [adv, h1, h2, adv]

    def test_duplicate_injections_each_delivered_exactly_once(self):
        net = NetworkModel(["a"], delta=0)
        block = make_block(1, "x")
        for _ in range(3):
            net.inject(block, "a", 1)
        assert net.due("a", 1) == [block] * 3
        assert net.pending_count() == 0
        # Nothing left to rescan: the drained buckets are gone.
        assert net.due("a", 1) == []
        assert net._buckets["a"] == {}

    def test_sequence_numbers_are_distinct_and_monotone(self):
        net = NetworkModel(["a", "b"], delta=0)
        same = make_block(1, "same")
        net.broadcast(same, 1)
        net.broadcast(same, 1)
        sequences = [
            sequence
            for bucket in net._buckets.values()
            for deliveries in bucket.values()
            for _priority, sequence, _block in deliveries
        ]
        assert len(set(sequences)) == 4
        assert all(s > 0 for s in sequences)

    def test_cross_slot_leftovers_merge_by_priority_then_sequence(self):
        """The (priority, enqueue order) contract spans delivery slots:
        a rushed later message beats a low-priority leftover."""
        net = NetworkModel(["a"], delta=0)
        early = make_block(1, "early")
        late = make_block(2, "late")
        net.inject(early, "a", 1, priority=5)
        net.inject(late, "a", 2, priority=-1)
        assert net.due("a", 2) == [late, early]
        assert net.pending_count() == 0
