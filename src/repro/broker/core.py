"""One broker's steps of Algorithms 2 and 3, written once for both shells.

A :class:`BrokerCore` holds one :class:`~repro.broker.broker.SummaryBroker`
and its shell's :class:`~repro.broker.routing.EventRouter`.  It is
synchronous (no asyncio, no sockets, no clock) and sends through the
network object it is given; the shell delivers what it sent.  The
simulator (:class:`~repro.broker.system.SummaryPubSub`) attaches one core
per broker to its network, whose handler protocol is :meth:`receive`; the
live :class:`~repro.runtime.server.BrokerRuntime` builds one core over its
outbox and pumps the outbox after every call.  The constructor is the one
place a broker is built from the deployment settings.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.broker.broker import DeliveryCallback, SummaryBroker
from repro.broker.propagation import TargetPolicy, select_period_target
from repro.broker.routing import EventRouter
from repro.model.events import Event
from repro.model.ids import IdCodec, SubscriptionId
from repro.model.schema import Schema
from repro.model.subscriptions import Subscription
from repro.network.topology import Topology
from repro.obs.audit import SummaryAuditor, paranoid_enabled
from repro.obs.tracing import NULL_TRACER
from repro.summary.precision import Precision
from repro.wire.codec import ValueWidth, WireCodec
from repro.wire.messages import Message, MessageCodec

__all__ = [
    "BrokerCore", "DEFAULT_MAX_SUBSCRIPTIONS", "deployment_codec", "paranoid_auditor",
]

#: Default ``c2`` capacity: the paper sizes ids for ~1M outstanding
#: subscriptions per broker (20 bits).
DEFAULT_MAX_SUBSCRIPTIONS = 1 << 20


def deployment_codec(
    topology: Topology, schema: Schema, max_subscriptions: int, value_width: ValueWidth
) -> MessageCodec:
    """The frame codec one deployment shares (``.wire`` is its summary
    codec, ``.wire.id_codec`` its id layout)."""
    id_codec = IdCodec(topology.num_brokers, max_subscriptions, len(schema))
    return MessageCodec(WireCodec(schema, id_codec, value_width))


def paranoid_auditor(schema: Schema, paranoid: Optional[bool]) -> Optional[SummaryAuditor]:
    """The auditor of paranoid mode, None when it is off (``paranoid=None``
    follows the ``REPRO_PARANOID`` switch).  It re-validates the broker's
    summary/store invariants after every unsubscribe and the dedup tables
    after every publish, and the broker cross-checks compiled-vs-reference
    match parity on every event."""
    on = paranoid_enabled() if paranoid is None else paranoid
    return SummaryAuditor(schema) if on else None


class BrokerCore:
    """One broker's Algorithm-2 and Algorithm-3 steps, without I/O."""

    def __init__(
        self,
        broker_id: int,
        schema: Schema,
        network,
        router: EventRouter,
        *,
        precision: Precision = Precision.COARSE,
        max_subscriptions: int = DEFAULT_MAX_SUBSCRIPTIONS,
        dedup_capacity: int = 4096,
        suppress_covered: bool = True,
        on_delivery: Optional[DeliveryCallback] = None,
        policy: TargetPolicy = TargetPolicy.HIGHEST_DEGREE,
        tracer=None,
        auditor: Optional[SummaryAuditor] = None,
        broker_cls: type = SummaryBroker,
    ):
        self.broker_id = broker_id
        self.broker: SummaryBroker = broker_cls(
            broker_id, schema, precision, on_delivery=on_delivery,
            dedup_capacity=dedup_capacity, max_subscriptions=max_subscriptions,
            suppress_covered=suppress_covered,
        )
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.auditor = auditor
        self.broker.tracer = self.tracer
        self.broker.paranoid = auditor is not None
        #: The shell's network: ``topology``, ``metrics`` and ``send``.
        self.network = network
        #: The shell's router (one per simulated system, one per live
        #: process).  The broker joins its map; the router is traced too.
        self.router = router
        router.brokers[broker_id] = self.broker
        router.tracer = self.tracer
        self.policy = policy
        #: Periods closed; a ``summary_send`` record carries the number.
        self.periods_run = 0

    def receive(self, src: int, message: Message) -> None:
        """One frame from peer ``src``: EVENT and NOTIFY go to the router,
        the rest to the broker, whose reply goes back to ``src``."""
        if self.router.handle_message(self.broker_id, src, message):
            return
        reply = self.broker.receive_period_frame(src, message)
        if reply is not None:
            self.network.send(self.broker_id, src, reply)

    def act(self, full: bool = False) -> Optional[int]:
        """Algorithm 2 steps 1-2, this broker's one send of the open
        period: pick the target, fold the pending batch into the frame
        (a full summary with ``full``), trace and send it.  Returns the
        target (None without one)."""
        broker = self.broker
        target = select_period_target(self.network.topology, broker, self.policy)
        frame = broker.act_period(target, full=full)
        if frame is None:
            return target
        if self.tracer.enabled:
            self.tracer.record(
                "summary_send", broker=self.broker_id,
                trace_id=self.periods_run + 1, target=target,
                merged_brokers=len(broker.period.brokers),
                ids=len(broker.period.adds.all_ids()),
            )
        self.network.send(self.broker_id, target, frame)
        return target

    def finish_period(self) -> None:
        self.broker.finish_period()
        self.periods_run += 1

    def publish(self, events: Sequence[Event]) -> List[int]:
        """A producer burst: validate each event, count one match batch,
        mint the publish ids and run the ingress hop.  Returns the ids."""
        validate = self.broker.schema.validate_event
        for event in events:
            validate(event)
        self.network.metrics.record_match_batch(len(events))
        ids = self.router.publish_batch(self.broker_id, events)
        if self.auditor is not None:
            # Publishing never mutates summaries; the dedup-capacity check
            # over the router's brokers is all it can break.
            self.auditor.audit_dedup(self.router)
        return ids

    def subscribe(self, subscription: Subscription) -> SubscriptionId:
        return self.broker.subscribe(subscription)

    def unsubscribe(self, sid: SubscriptionId) -> bool:
        removed = self.broker.unsubscribe(sid)
        if removed and self.auditor is not None:
            # Summary/store divergence starts here (stale kept rows, stale
            # period deltas): re-validate while the trail is short.
            self.auditor.assert_clean(self.broker)
        return removed
