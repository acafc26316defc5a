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

Delivery order is the documented ``(priority, enqueue order)`` contract:
every :class:`Delivery` carries a monotone sequence number stamped at
enqueue time, so two *value-equal* messages (same block, recipient,
slot, and priority — which the adversary can manufacture at will) are
still distinct schedule entries and drain in exact enqueue order.  The
queue is bucketed per recipient and per delivery slot; :meth:`due` pops
whole buckets, so one call costs O(m log m) in the m messages actually
due rather than rescanning the global queue.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.protocol.block import Block


@dataclass
class Delivery:
    """One scheduled message: ``block`` reaches ``recipient`` in ``slot``."""

    recipient: str
    block: Block
    slot: int
    #: Within-slot delivery order (lower = earlier), adversary-chosen.
    priority: int = 0
    #: Monotone enqueue stamp; breaks priority ties in enqueue order and
    #: keeps value-equal duplicates apart (they are distinct deliveries).
    sequence: int = 0


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
        #: Realized end-to-end delay (in slot units) of every honest
        #: broadcast delivery to a party other than the sender — the
        #: sample behind ``SimulationResult.delay_distribution()``.  In
        #: the slot-quantized model this is just the adversary's hold;
        #: the continuous-time :class:`~repro.protocol.transport.
        #: Transport` adds the physical transit on top.
        self.realized_delays: list[float] = []

    def broadcast(
        self,
        block: Block,
        sent_slot: int,
        delays: dict[str, int] | None = None,
        priorities: dict[str, int] | None = None,
        sender: str | None = None,
    ) -> None:
        """Honest broadcast: deliver to everyone within the Δ deadline.

        ``delays[name] ∈ [0, Δ]`` is the adversary's per-recipient delay
        choice (default: maximal allowed delay 0 in the synchronous
        model, Δ otherwise must be chosen explicitly — the default here
        is immediate delivery, the honest-friendly schedule).

        ``sender`` names the broadcasting party; the slot model ignores
        it for scheduling (the graph is complete and links are free) but
        uses it to exclude the sender's own loopback delivery from the
        realized-delay sample.  Transport subclasses additionally route
        by it.
        """
        delays = delays or {}
        priorities = priorities or {}
        for recipient in self.recipients:
            delay = delays.get(recipient, 0)
            if not 0 <= delay <= self.delta:
                raise ValueError(
                    f"delay {delay} outside [0, {self.delta}] for honest "
                    f"broadcast (axiom A0/A4Δ violation)"
                )
            self._push(recipient, block, sent_slot + delay,
                       priorities.get(recipient, 0))
            if recipient != sender:
                self.realized_delays.append(float(delay))

    def inject(
        self,
        block: Block,
        recipient: str,
        deliver_slot: int,
        priority: int = -1,
    ) -> None:
        """Adversarial injection: any block, any recipient, any time.

        Default priority −1 delivers *before* the slot's honest messages,
        modelling the rushing adversary's head start.
        """
        self._push(recipient, block, deliver_slot, priority)

    def _push(
        self, recipient: str, block: Block, slot: int, priority: int
    ) -> None:
        self._sequence += 1
        bucket = self._buckets.setdefault(recipient, {})
        deliveries = bucket.get(slot)
        if deliveries is None:
            deliveries = bucket[slot] = []
            heapq.heappush(
                self._slot_heaps.setdefault(recipient, []), slot
            )
        deliveries.append(
            Delivery(recipient, block, slot, priority, self._sequence)
        )
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
        due_now.sort(key=lambda d: (d.priority, d.sequence))
        self._pending -= len(due_now)
        return [d.block for d in due_now]

    def pending_count(self) -> int:
        """Undelivered messages (used by tests to check A0 compliance)."""
        return self._pending

    def final_drain_slot(self, total_slots: int) -> int:
        """The slot whose drain empties every deadline-bound message.

        The slot model's deadline is ``total_slots + Δ`` (axiom A4Δ).
        Transport subclasses override this with their scheduling
        horizon: physical transit may legitimately outlast the Δ budget,
        and the end-of-run views must still include those messages.
        """
        return total_slots + self.delta
