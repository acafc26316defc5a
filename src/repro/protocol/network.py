"""Round-based networks with a rushing adversary (axioms A0 and A4Δ).

The paper's network is not packets-and-sockets; it is a scheduling
adversary.  Honest broadcasts made in slot ``t`` must reach every honest
party by the end of slot ``t + Δ`` (Δ = 0 in the synchronous model); the
adversary sees every broadcast first ("rushing"), chooses per-recipient
delivery slots within the deadline, chooses per-recipient *order* (which
drives A0 tie-breaking), and may inject its own blocks to any subset of
recipients at any time.

:class:`NetworkModel` implements exactly that contract; the simulation
engine asks it, per slot, which recipients have messages due
(:meth:`NetworkModel.ready`) and drains only those.
Adversary strategies interact with the network only through
:meth:`NetworkModel.broadcast` (honest, deadline-bound) and
:meth:`NetworkModel.inject` (adversarial, unconstrained).

A broadcast in slot ``t`` with hold ``h`` lands in slot ``⌊t + h +
transit⌋``, where :meth:`NetworkModel.transits` gives the physical
transit per recipient: zero here, where links are free, and link
physics in the WAN :class:`~repro.protocol.transport.Transport`, which
overrides only that method.  Both models share this one delivery
queue.

Delivery order is the documented ``(priority, enqueue order)`` contract:
every :class:`Delivery` carries a monotone sequence number stamped at
enqueue time, so two *value-equal* messages (same block, recipient,
slot, and priority — which the adversary can manufacture at will) are
still distinct schedule entries and drain in exact enqueue order.  The
queue is bucketed per recipient and per delivery slot; :meth:`due` pops
whole buckets, so one call costs O(m log m) in the m messages actually
due rather than rescanning the global queue.  A message booked into a
slot that was already drained is delivered by the recipient's next
drain, at its ``(priority, sequence)`` position in that batch.
"""

from __future__ import annotations

import heapq
import math
from typing import NamedTuple

from repro.protocol.block import Block


class Delivery(NamedTuple):
    """One scheduled message; its bucket names the recipient and slot.

    Tuple order is delivery order: ``priority`` (lower = earlier,
    adversary-chosen) and then ``sequence``, the monotone enqueue stamp
    that breaks priority ties in enqueue order and keeps value-equal
    duplicates apart.  Stamps are unique, so a comparison never reaches
    the block.
    """

    priority: int
    sequence: int
    block: Block


class NetworkModel:
    """Message scheduling under a Δ-bounded rushing adversary.

    ``delta = 0`` gives the synchronous model of Section 2 (axiom A0):
    slot-``t`` broadcasts are delivered before slot ``t + 1``.  The
    adversary may *accelerate* or *reorder* within the allowed window but
    never suppress an honest broadcast past its deadline — that invariant
    is enforced here rather than trusted to adversary implementations.
    """

    def __init__(self, recipients: list[str], delta: int = 0) -> None:
        if delta < 0:
            raise ValueError(f"delta must be non-negative, got {delta}")
        self.recipients = list(recipients)
        self.delta = delta
        #: recipient → delivery slot → deliveries, in enqueue order.
        self._buckets: dict[str, dict[int, list[Delivery]]] = {
            name: {} for name in self.recipients
        }
        #: recipient → min-heap of that recipient's pending slot keys.
        #: A slot appears exactly once: pushed when its bucket is
        #: created, popped when :meth:`due` drains it.
        self._slot_heaps: dict[str, list[int]] = {
            name: [] for name in self.recipients
        }
        self._sequence = 0
        self._pending = 0
        #: The latest slot any message was booked into.
        self._latest = 0
        #: Realized end-to-end delay (in slot units) of every honest
        #: broadcast delivery to a party other than the sender — the
        #: sample behind ``SimulationResult.delay_distribution()``: the
        #: adversary's hold plus the physical transit.
        self.realized_delays: list[float] = []

    def transits(self, block: Block, sender: str | None) -> list[float]:
        """Physical transit of ``block`` to each recipient, in slot units.

        One value per recipient, in recipient order.  The slot model's
        links are free, so every transit is zero.
        """
        return [0.0] * len(self.recipients)

    def broadcast(
        self,
        block: Block,
        sent_slot: int,
        delays: dict[str, int] | None = None,
        priorities: dict[str, int] | None = None,
        sender: str | None = None,
    ) -> None:
        """Honest broadcast: deliver to everyone within the Δ deadline.

        ``delays[name] ∈ [0, Δ]`` is the adversary's per-recipient hold
        (default 0, immediate delivery — the honest-friendly schedule).
        Every hold is checked before anything is booked.  The hold
        *composes* with the physical transit (:meth:`transits`): the
        adversary delays the hand-off to the network, then physics takes
        over, so a delivery lands in slot ``⌊sent_slot + hold +
        transit⌋``.  A4Δ bounds the hold, not the transit, which may
        legitimately outlast Δ (see :meth:`final_drain_slot`).

        ``sender`` names the broadcasting party; the transit routes by
        it, and the sender's own loopback delivery is left out of the
        realized-delay sample.
        """
        recipients = self.recipients
        if delays:
            holds = [delays.get(recipient, 0) for recipient in recipients]
            if min(holds, default=0) < 0 or max(holds, default=0) > self.delta:
                hold = next(h for h in holds if not 0 <= h <= self.delta)
                raise ValueError(
                    f"delay {hold} outside [0, {self.delta}] for honest "
                    f"broadcast (axiom A0/A4Δ violation)"
                )
        else:
            holds = [0] * len(recipients)
        priorities = priorities or {}
        transits = self.transits(block, sender)
        push, realized, floor = self._push, self.realized_delays, math.floor
        for recipient, hold, transit in zip(recipients, holds, transits):
            push(
                recipient,
                block,
                floor(sent_slot + hold + transit),
                priorities.get(recipient, 0),
            )
            if recipient != sender:
                realized.append(hold + transit)

    def inject(
        self,
        block: Block,
        recipient: str,
        deliver_slot: int,
        priority: int = -1,
    ) -> None:
        """Adversarial injection: any block, any recipient, any time.

        The adversary's own channel: untouched by the transit, and left
        out of the honest realized-delay sample.  Default priority −1
        delivers *before* the slot's honest messages, modelling the
        rushing adversary's head start.
        """
        self._push(recipient, block, deliver_slot, priority)

    def _push(
        self, recipient: str, block: Block, slot: int, priority: int
    ) -> None:
        bucket = self._buckets[recipient]  # KeyError: not a recipient
        self._sequence += 1
        deliveries = bucket.get(slot)
        if deliveries is None:
            deliveries = bucket[slot] = []
            heapq.heappush(self._slot_heaps[recipient], slot)
            if slot > self._latest:
                self._latest = slot
        deliveries.append(Delivery(priority, self._sequence, block))
        self._pending += 1

    def ready(self, slot: int) -> list[str]:
        """Recipients with a message due by the end of ``slot``, in order.

        Draining ``slot`` for any other recipient would return nothing,
        so the simulation drains only these; an idle slot costs one
        check, not one drain per recipient.
        """
        if not self._pending:
            return []
        heaps = self._slot_heaps
        return [
            name
            for name in self.recipients
            if heaps[name] and heaps[name][0] <= slot
        ]

    def due(self, recipient: str, slot: int) -> list[Block]:
        """Messages for ``recipient`` due at the end of ``slot``, in order.

        Delivery order is (priority, enqueue order); the adversary sets
        priorities, so it fully controls per-recipient ordering (A0).
        Each call drains exactly the due buckets: cost is O(m log m) in
        the m returned messages, independent of everything still queued.
        """
        heap = self._slot_heaps.get(recipient)
        if not heap or heap[0] > slot:
            return []
        bucket = self._buckets[recipient]
        due_now: list[Delivery] = []
        while heap and heap[0] <= slot:
            due_now.extend(bucket.pop(heapq.heappop(heap)))
        due_now.sort()
        self._pending -= len(due_now)
        return [d.block for d in due_now]

    def pending_count(self) -> int:
        """Undelivered messages (used by tests to check A0 compliance)."""
        return self._pending

    def final_drain_slot(self, total_slots: int) -> int:
        """The slot whose drain empties the network.

        The deadline of the last honest broadcast is ``total_slots + Δ``
        (axiom A4Δ); physical transit and adversarial injections may be
        booked later still, and the end-of-run views must include them
        too, so the drain reaches the latest booked slot.
        """
        return max(total_slots + self.delta, self._latest)
