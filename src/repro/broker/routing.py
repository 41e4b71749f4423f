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

:meth:`EventRouter.process_batch` is the one place these steps run, for a
burst of EVENT frames at one broker; a single event is a burst of one.
Step 1 checks the whole burst at once through
:meth:`SummaryBroker.match_kept_many`, the compiled snapshot
(:class:`repro.summary.compiled.CompiledMatcher`).  It returns the id sets
of the reference Algorithm-1 walk, so every routing decision (owner
notifications, BROCLI forwarding targets, hop counts) is the paper's; this
is asserted end-to-end against the walk by
``tests/broker/test_routing.py::TestCompiledMatcherParity``.

The router only sends: whoever owns the network delivers what it sent
(:class:`~repro.broker.system.SummaryPubSub` runs the simulator, the live
runtime pumps its outbox onto TCP links).
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

    def publish_batch(self, broker_id: int, events: Sequence[Event]) -> List[int]:
        """Inject a burst of producer events at one broker and run its
        Algorithm-3 hop; returns the minted publish ids.

        Each event gets its own publish id, BROCLI search and
        notifications, in order, exactly as if published one at a time;
        only the ingress broker's summary check is shared by the burst.
        """
        ids = [self.next_publish_id(broker_id) for _ in events]
        tracer = self.tracer
        started = tracer.now()
        self.process_batch(
            self.brokers[broker_id],
            [
                (event, frozenset(), publish_id)
                for event, publish_id in zip(events, ids)
            ],
        )
        if tracer.enabled:
            for event, publish_id in zip(events, ids):
                tracer.record(
                    "publish", broker=broker_id, trace_id=publish_id,
                    since=started, attributes=len(event),
                )
        return ids

    def handle_message(self, dst: int, src: int, message: Message) -> bool:
        """Dispatch EVENT and NOTIFY messages; False for other kinds."""
        broker = self.brokers[dst]
        if isinstance(message, EventMessage):
            self.process_batch(
                broker, [(message.event, message.brocli, message.publish_id)]
            )
            return True
        if isinstance(message, NotifyMessage):
            broker.deliver(
                message.matched, message.event, publish_id=message.publish_id
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
            target = self._next_router(blocked, src, message.event)
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

    def process_batch(
        self,
        broker: SummaryBroker,
        items: Sequence[Tuple[Event, FrozenSet[int], int]],
    ) -> None:
        """Algorithm 3 for a burst of EVENT frames at one broker.

        ``items`` is ``(event, brocli_in, publish_id)`` in arrival order.
        Duplicate publish ids are dropped through the broker's LRU, step 1
        checks the whole burst in one :meth:`SummaryBroker.match_kept_many`
        call, and every event walks its own steps 2–4.  The result equals
        routing each event as a burst of one (asserted by
        ``tests/broker/test_batch_differential.py``).

        Sharing step 1 is sound because EVENT processing never mutates the
        kept summary or ``Merged_Brokers`` (only SUMMARY frames do, and
        the runtime's dispatch loop never folds those into a burst), so
        every event of the burst observes the same broker knowledge it
        would have observed alone.
        """
        fresh_items = [
            item for item in items if broker.first_routing_of(item[2])
        ]
        if not fresh_items:
            return
        events = [event for event, _brocli, _pid in fresh_items]
        own = broker.broker_id
        tracer = self.tracer
        traced = tracer.enabled
        # Step 1: check the local merged summary, once for the burst.
        if traced:
            with tracer.span(
                "summary_match", broker=own, trace_id=fresh_items[0][2],
                burst=len(events),
            ) as span:
                matched_sets = broker.match_kept_many(events)
                span.note(matched=sum(len(m) for m in matched_sets))
        else:
            matched_sets = broker.match_kept_many(events)
        merged = broker.merged_brokers
        all_brokers = self._all_brokers
        for (event, brocli_in, publish_id), matched in zip(
            fresh_items, matched_sets
        ):
            # Step 2: add this broker's Merged_Brokers (its own id included).
            brocli = brocli_in | merged | {own}
            # Step 3: notify owners — but only those not examined upstream.
            if matched:
                self._notify_owners(broker, event, matched, brocli_in, publish_id)
            # Step 4: keep searching until every broker is examined.
            target = None
            if brocli != all_brokers:
                target = self._next_router(brocli, own, event)
                self.network.send(
                    own,
                    target,
                    EventMessage(event=event, brocli=brocli, publish_id=publish_id),
                )
            if traced:
                outcome = (
                    {"search_complete": True} if target is None
                    else {"forwarded_to": target}
                )
                tracer.record(
                    "route_hop", broker=own, trace_id=publish_id,
                    matched=len(matched), brocli_in=len(brocli_in),
                    brocli_out=len(brocli), **outcome,
                )

    def _notify_owners(
        self,
        broker: SummaryBroker,
        event: Event,
        matched: Set[SubscriptionId],
        examined: FrozenSet[int],
        publish_id: int,
    ) -> None:
        """Hand ``matched`` to its owners (``c1``), one group per owner in
        one pass, skipping the ``examined`` owners: this broker delivers
        its own group, every other owner gets one NOTIFY."""
        by_owner: Dict[int, List[SubscriptionId]] = {}
        for sid in matched:
            owner = sid.broker
            if owner in examined:
                continue
            group = by_owner.get(owner)
            if group is None:
                by_owner[owner] = [sid]
            else:
                group.append(sid)
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

    def _next_router(
        self, brocli: FrozenSet[int], origin: int, event: Event
    ) -> int:
        """The highest-degree broker not yet examined (smallest id on ties).

        ``origin`` is the broker doing the forwarding and ``event`` the
        event being routed; the base policy ignores both, but subclasses
        route within the origin's region first (:mod:`repro.ext.locality`)
        or rotate hubs per event (:mod:`repro.ext.virtual_degrees`)."""
        topology = self.network.topology
        remaining = [b for b in topology.brokers if b not in brocli]
        assert remaining, "caller guarantees BROCLI is incomplete"
        return max(remaining, key=lambda b: (topology.degree(b), -b))
