"""Algorithm 3 — distributed event processing (paper section 4.3).

Each broker that an event visits:

1. checks its local merged (kept) summary for matches,
2. updates the event's ``BROCLI`` list — the brokers whose subscriptions
   have already been examined — by adding its ``Merged_Brokers`` set,
3. forwards the event (as a :class:`NotifyMessage`) to every broker that
   owns matched subscriptions, identified by the ``c1`` field of the ids,
4. if ``BROCLI`` does not yet contain all brokers, forwards the event plus
   the updated ``BROCLI`` to the highest-degree broker not yet in it
   (ties broken by smallest id).

Matched ids whose owner is already in the *incoming* BROCLI are skipped:
that owner's subscriptions were examined (and notified) by an earlier hop,
so re-notifying would deliver duplicates when visited brokers have
overlapping knowledge.

Step 1's summary check goes through :meth:`SummaryBroker.match_kept`, the
compiled snapshot (:class:`repro.summary.compiled.CompiledMatcher`).  It
returns the id sets of the reference Algorithm-1 walk, so every routing
decision (owner notifications, BROCLI forwarding targets, hop counts) is
the paper's; this is asserted end-to-end against the walk by
``tests/broker/test_routing.py::TestCompiledMatcherParity``.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.broker.broker import SummaryBroker
from repro.model.events import Event
from repro.model.ids import SubscriptionId
from repro.network.simulator import Network
from repro.obs.tracing import NULL_TRACER
from repro.wire.messages import EventMessage, Message, NotifyMessage

__all__ = ["EventRouter"]

#: Process-wide epoch allocator: every router generation gets a distinct
#: namespace for its publish ids, so a re-created router (system rebuild,
#: persistence restore) can never collide with ids that long-lived brokers
#: still remember in their dedup tables.
_EPOCH_SEQUENCE = itertools.count(1)


class EventRouter:
    """Drives Algorithm 3 over a simulated network of summary brokers.

    Every publish gets a unique ``publish_id`` carried by its EVENT and
    NOTIFY messages; brokers remember recently-seen ids so duplicated
    messages (at-least-once transports, see
    :class:`repro.network.faults.LossyNetwork` and
    :class:`repro.network.reliable.ReliableNetwork`) neither re-forward
    the search nor re-deliver to consumers.

    **Id layout.**  ``publish_id`` packs ``(epoch | broker | sequence)``
    into a fixed 49-bit word whose top marker bit is always set::

        [1 | epoch:8 | origin broker:16 | sequence:24]

    The constant bit-length keeps the varint encoding of every identified
    publish the same size (7 bytes), which makes byte accounting
    deterministic across router generations — crash-recovered systems
    route byte-for-byte identically even though their epochs differ.  The
    epoch namespacing fixes a real bug: a fresh router restarts its
    sequence at 0, and without the epoch its ids would collide with ids
    already remembered by brokers, silently dropping new events as
    "duplicates".

    **Fault tolerance.**  When the network is a
    :class:`~repro.network.reliable.ReliableNetwork`, the system facade
    registers :meth:`handle_send_failure` as its failure listener.  A
    forwarded EVENT whose retry budget ran out then re-routes the BROCLI
    search to the next-best broker not yet examined (skipping brokers
    already found unreachable for that publish), so one dead link loses at
    most the unreachable broker's own subscribers instead of every
    remaining downstream delivery.  Failed NOTIFYs are counted — the owner
    itself is unreachable, so there is nowhere else to send them.
    """

    #: Observability hook — assigned by the system facade (and re-assigned
    #: after ext router swaps); the null default costs one attribute check.
    tracer = NULL_TRACER

    #: Bits of the per-router publish sequence (wraps after ~16M publishes,
    #: far beyond any dedup table's memory).
    SEQ_BITS = 24
    #: Bits of the origin broker id inside a publish id.
    BROKER_BITS = 16

    def __init__(
        self,
        network: Network,
        brokers: Dict[int, SummaryBroker],
        epoch: Optional[int] = None,
    ):
        self.network = network
        self.brokers = brokers
        self._all_brokers: FrozenSet[int] = frozenset(network.topology.brokers)
        self._publish_sequence = 0
        if epoch is None:
            epoch = next(_EPOCH_SEQUENCE)
        self.epoch = epoch
        #: 9-bit field with the marker bit set — constant width by design.
        self._epoch_field = 0x100 | (epoch & 0xFF)
        # -- reliability bookkeeping --
        #: publishes whose BROCLI search was re-routed around a dead link.
        self.event_reroutes = 0
        #: owner notifications lost because the owner was unreachable.
        self.notify_failures = 0
        #: searches abandoned with no reachable unexamined broker left.
        self.searches_abandoned = 0
        #: per-publish brokers found unreachable (bounded LRU).
        self._unreachable: "OrderedDict[int, Set[int]]" = OrderedDict()
        self._unreachable_capacity = 1024

    # -- entry points --------------------------------------------------------

    def next_publish_id(self, broker_id: int) -> int:
        """Mint the epoch-namespaced id for one publish at ``broker_id``."""
        if not 0 <= broker_id < (1 << self.BROKER_BITS):
            raise ValueError(
                f"broker id {broker_id} does not fit the publish-id layout"
            )
        self._publish_sequence += 1
        sequence = self._publish_sequence & ((1 << self.SEQ_BITS) - 1)
        return (
            ((self._epoch_field << self.BROKER_BITS) | broker_id) << self.SEQ_BITS
        ) | sequence

    def publish(self, broker_id: int, event: Event) -> None:
        """Inject a producer's event at its attached broker and run the
        distributed processing to completion."""
        publish_id = self.next_publish_id(broker_id)
        tracer = self.tracer
        if tracer.enabled:
            with tracer.span(
                "publish", broker=broker_id, trace_id=publish_id,
                attributes=len(event),
            ):
                self.process_event(
                    self.brokers[broker_id], event, frozenset(), publish_id
                )
                self.network.run()
            return
        self.process_event(self.brokers[broker_id], event, frozenset(), publish_id)
        self.network.run()

    def publish_batch(self, broker_id: int, events: Sequence[Event]) -> List[int]:
        """Inject a burst of producer events at one broker and run the
        distributed processing of all of them to completion.

        Semantically identical to calling :meth:`publish` per event (each
        event gets its own publish id, BROCLI search and notifications,
        in order) but the ingress broker's Algorithm-1 check runs once
        over the whole burst via :meth:`SummaryBroker.match_kept_many` —
        the batched hot path of the live runtime.  Returns the minted
        publish ids.
        """
        broker = self.brokers[broker_id]
        ids = [self.next_publish_id(broker_id) for _ in events]
        tracer = self.tracer
        if tracer.enabled:
            for event, publish_id in zip(events, ids):
                tracer.record(
                    "publish", broker=broker_id, trace_id=publish_id,
                    attributes=len(event), batched=True,
                )
        self.process_batch(
            broker,
            [
                (event, frozenset(), publish_id)
                for event, publish_id in zip(events, ids)
            ],
        )
        self.network.run()
        return ids

    def handle_message(self, dst: int, src: int, message: Message) -> bool:
        """Dispatch EVENT and NOTIFY messages; False for other kinds."""
        broker = self.brokers[dst]
        if isinstance(message, EventMessage):
            self.process_event(
                broker, message.event, message.brocli, message.publish_id
            )
            return True
        if isinstance(message, NotifyMessage):
            broker.deliver(
                set(message.matched), message.event, publish_id=message.publish_id
            )
            return True
        return False

    # -- reliability: retry-exhaustion handling ------------------------------------

    def handle_send_failure(self, src: int, dst: int, message: Message) -> bool:
        """React to a broker-to-broker send abandoned by the reliable
        transport (registered as a
        :class:`~repro.network.reliable.ReliableNetwork` failure listener).

        * An EVENT forward severed the serial BROCLI chain: re-route the
          search from ``src`` to the next-best broker that is neither
          examined (in BROCLI) nor already known unreachable for this
          publish.  The forwarded BROCLI deliberately does *not* include
          the dead broker — it was never examined, so a later hop may
          still reach it over a healthier link.
        * A NOTIFY failed: the owning broker itself is unreachable, so the
          delivery is lost; count it so experiments can report the residue.

        Returns True when the failure was handled (event/notify kinds).
        """
        if isinstance(message, EventMessage):
            unreachable = self._unreachable_for(message.publish_id)
            unreachable.add(dst)
            blocked = frozenset(message.brocli) | frozenset(unreachable)
            if self._all_brokers <= blocked:
                self.searches_abandoned += 1
                return True
            target = self._next_router(blocked, src)
            self.event_reroutes += 1
            self.network.send(
                src,
                target,
                EventMessage(
                    event=message.event,
                    brocli=message.brocli,
                    publish_id=message.publish_id,
                ),
            )
            return True
        if isinstance(message, NotifyMessage):
            self.notify_failures += 1
            return True
        return False

    def _unreachable_for(self, publish_id: int) -> Set[int]:
        """The (bounded, LRU) unreachable-broker set for one publish."""
        table = self._unreachable
        entry = table.get(publish_id)
        if entry is not None:
            table.move_to_end(publish_id)
            return entry
        entry = table[publish_id] = set()
        if len(table) > self._unreachable_capacity:
            table.popitem(last=False)
        return entry

    # -- Algorithm 3 at one broker ----------------------------------------------

    def process_event(
        self,
        broker: SummaryBroker,
        event: Event,
        brocli_in: FrozenSet[int],
        publish_id: int = 0,
    ) -> None:
        # Duplicate suppression: this broker already ran the search step
        # for this publish (a redelivered EVENT message).
        if not broker.first_routing_of(publish_id):
            return
        tracer = self.tracer
        if not tracer.enabled:
            # Step 1: check the local merged summary.
            matched = broker.match_kept(event)
            # Step 2: update BROCLI with this broker's Merged_Brokers
            # (which includes its own id).
            brocli = brocli_in | broker.merged_brokers | {broker.broker_id}
            # Step 3: notify owners — but only those not examined upstream.
            fresh = {sid for sid in matched if sid.broker not in brocli_in}
            self._notify_owners(broker, event, fresh, publish_id)
            # Step 4: keep searching until every broker is examined.
            if brocli != self._all_brokers:
                target = self._next_router(brocli, broker.broker_id)
                self.network.send(
                    broker.broker_id,
                    target,
                    EventMessage(event=event, brocli=brocli, publish_id=publish_id),
                )
            return
        # Traced variant of the same four steps.
        with tracer.span(
            "route_hop", broker=broker.broker_id, trace_id=publish_id,
            brocli_in=len(brocli_in),
        ) as hop:
            with tracer.span(
                "summary_match", broker=broker.broker_id, trace_id=publish_id,
            ) as match_span:
                matched = broker.match_kept(event)
                match_span.note(matched=len(matched))
            brocli = brocli_in | broker.merged_brokers | {broker.broker_id}
            fresh = {sid for sid in matched if sid.broker not in brocli_in}
            self._notify_owners(broker, event, fresh, publish_id)
            if brocli != self._all_brokers:
                target = self._next_router(brocli, broker.broker_id)
                hop.note(forwarded_to=target, brocli_out=len(brocli))
                self.network.send(
                    broker.broker_id,
                    target,
                    EventMessage(event=event, brocli=brocli, publish_id=publish_id),
                )
            else:
                hop.note(search_complete=True, brocli_out=len(brocli))

    def process_batch(
        self,
        broker: SummaryBroker,
        items: Sequence[Tuple[Event, FrozenSet[int], int]],
    ) -> None:
        """Algorithm 3 for a burst of EVENT frames at one broker.

        ``items`` is ``(event, brocli_in, publish_id)`` in arrival order.
        The result is indistinguishable from calling :meth:`process_event`
        once per item (asserted by
        ``tests/broker/test_batch_differential.py``): duplicate publish
        ids are suppressed through the same LRU, every event still walks
        its own steps 2–4, and only step 1 — the summary check — is
        batched through :meth:`SummaryBroker.match_kept_many` so the
        compiled matcher checks its snapshot's staleness once per burst.

        Batching is sound because EVENT processing never mutates the
        kept summary or ``Merged_Brokers`` (only SUMMARY frames do, and
        the runtime's dispatch loop never folds those into a batch), so
        every event of the burst observes the same broker knowledge it
        would have observed when processed one at a time.
        """
        fresh_items = [
            item for item in items if broker.first_routing_of(item[2])
        ]
        if not fresh_items:
            return
        tracer = self.tracer
        if tracer.enabled:
            with tracer.span(
                "batch_match", broker=broker.broker_id,
                trace_id=fresh_items[0][2], batch=len(fresh_items),
            ) as span:
                matched_sets = broker.match_kept_many(
                    [event for event, _brocli, _pid in fresh_items]
                )
                span.note(matched=sum(len(m) for m in matched_sets))
        else:
            matched_sets = broker.match_kept_many(
                [event for event, _brocli, _pid in fresh_items]
            )
        merged = broker.merged_brokers
        own = broker.broker_id
        all_brokers = self._all_brokers
        for (event, brocli_in, publish_id), matched in zip(
            fresh_items, matched_sets
        ):
            brocli = brocli_in | merged | {own}
            fresh = {sid for sid in matched if sid.broker not in brocli_in}
            self._notify_owners(broker, event, fresh, publish_id)
            if brocli != all_brokers:
                target = self._next_router(brocli, own)
                self.network.send(
                    own,
                    target,
                    EventMessage(event=event, brocli=brocli, publish_id=publish_id),
                )

    def _notify_owners(
        self,
        broker: SummaryBroker,
        event: Event,
        matched: Set[SubscriptionId],
        publish_id: int,
    ) -> None:
        by_owner: Dict[int, Set[SubscriptionId]] = {}
        for sid in matched:
            by_owner.setdefault(sid.broker, set()).add(sid)
        tracer = self.tracer
        for owner, sids in sorted(by_owner.items()):
            if owner == broker.broker_id:
                broker.deliver(sids, event, publish_id=publish_id)
            else:
                if tracer.enabled:
                    tracer.record(
                        "notify", broker=broker.broker_id, trace_id=publish_id,
                        owner=owner, matched=len(sids),
                    )
                self.network.send(
                    broker.broker_id,
                    owner,
                    NotifyMessage(
                        event=event, matched=frozenset(sids), publish_id=publish_id
                    ),
                )

    def _next_router(self, brocli: FrozenSet[int], origin: int) -> int:
        """The highest-degree broker not yet examined (smallest id on ties).

        ``origin`` is the broker doing the forwarding; the base policy
        ignores it, but locality-aware subclasses route within the
        origin's region first (see :mod:`repro.ext.locality`)."""
        topology = self.network.topology
        remaining = [b for b in topology.brokers if b not in brocli]
        assert remaining, "caller guarantees BROCLI is incomplete"
        return max(remaining, key=lambda b: (topology.degree(b), -b))
