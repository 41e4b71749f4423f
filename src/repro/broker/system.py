"""The summary-based publish/subscribe system facade.

:class:`SummaryPubSub` wires together the whole paper stack — schema, id
codec, wire codec, overlay network, one :class:`SummaryBroker` per node,
the Algorithm-2 propagation engine and the Algorithm-3 event router — and
exposes the four operations a deployment needs::

    system = SummaryPubSub(topology=cable_wireless_24(), schema=stock_schema())
    sid = system.subscribe(broker_id=3, subscription=sub)
    system.run_propagation_period()
    result = system.publish(broker_id=17, event=event)
    assert (3, sid) in {(d.broker, d.sid) for d in result.deliveries}

Propagation-phase and event-phase traffic is accounted in separate
:class:`NetworkMetrics` so experiments can report them independently
(figures 8/9 versus figure 10).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.broker.broker import SummaryBroker
from repro.broker.propagation import PropagationEngine, TargetPolicy
from repro.broker.routing import EventRouter
from repro.model.events import Event
from repro.model.ids import IdCodec, SubscriptionId
from repro.model.schema import Schema
from repro.model.subscriptions import Subscription
from repro.network.latency import LatencyModel, TimedNetwork
from repro.network.metrics import NetworkMetrics
from repro.network.reliable import ReliableNetwork, RetryPolicy
from repro.network.simulator import Network
from repro.network.topology import Topology
from repro.obs.audit import SummaryAuditor, paranoid_enabled
from repro.obs.metrics import MetricsRegistry, collect_system_metrics
from repro.obs.tracing import NULL_TRACER, Tracer
from repro.summary.precision import Precision
from repro.wire.codec import ValueWidth, WireCodec
from repro.wire.messages import Message, MessageCodec

__all__ = ["SummaryPubSub", "Delivery", "PublishResult"]

#: Default ``c2`` capacity: the paper sizes ids for ~1M outstanding
#: subscriptions per broker (20 bits).
DEFAULT_MAX_SUBSCRIPTIONS = 1 << 20


@dataclass(frozen=True)
class Delivery:
    """One event handed to one consumer's Event Displayer.

    ``at`` is the simulation-clock timestamp (ms) when the system runs on
    a :class:`~repro.network.latency.TimedNetwork`; None otherwise.
    """

    broker: int
    sid: SubscriptionId
    event: Event
    at: Optional[float] = None


@dataclass
class PublishResult:
    """What one publish cost and who received it."""

    deliveries: List[Delivery]
    hops: int
    messages: int
    bytes_sent: int
    #: publish-to-last-delivery time (ms) on a TimedNetwork; None otherwise.
    latency_ms: Optional[float] = None

    @property
    def matched_brokers(self) -> Set[int]:
        return {delivery.broker for delivery in self.deliveries}


class _Dispatcher:
    """Per-broker network handler: EVENT and NOTIFY frames go to the
    router, period frames to the broker."""

    def __init__(self, system: "SummaryPubSub", broker_id: int):
        self._system = system
        self._broker_id = broker_id

    def receive(self, src: int, message: Message) -> None:
        self._system._dispatch(self._broker_id, src, message)


class SummaryPubSub:
    """The complete summary-centric pub/sub system on a simulated overlay."""

    def __init__(
        self,
        topology: Topology,
        schema: Schema,
        precision: Precision = Precision.COARSE,
        value_width: ValueWidth = ValueWidth.F32,
        max_subscriptions: int = DEFAULT_MAX_SUBSCRIPTIONS,
        propagation_policy: TargetPolicy = TargetPolicy.HIGHEST_DEGREE,
        latency: Optional[LatencyModel] = None,
        network_cls: Optional[type] = None,
        network_options: Optional[Dict] = None,
        reliability: Optional[RetryPolicy] = None,
        dedup_capacity: int = 4096,
        tracer: Optional[Tracer] = None,
        paranoid: Optional[bool] = None,
        propagation_mode: str = "delta",
        suppress_covered: bool = True,
    ):
        self.topology = topology
        self.schema = schema
        self.precision = precision
        #: ``"delta"`` (default) ships incremental SummaryDeltaMessage
        #: frames with compressed id sets; ``"full"`` is the original
        #: per-period SummaryMessage path (the baseline the churn and
        #: propagation-bytes experiments compare against).
        self.propagation_mode = propagation_mode
        #: Covered-id suppression (folded in from ``repro.ext.hybrid``):
        #: subscriptions subsumed by an existing one never hit the wire.
        self.suppress_covered = suppress_covered
        #: Per-broker publish-id LRU size (at-least-once dedup window).
        self.dedup_capacity = dedup_capacity
        #: Event-lifecycle tracer shared by router/propagation/brokers;
        #: :data:`~repro.obs.tracing.NULL_TRACER` (one attribute check per
        #: stage) unless a live :class:`~repro.obs.tracing.Tracer` is given.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Paranoid mode: defaults to the ``REPRO_PARANOID`` env switch.
        #: When on, a :class:`~repro.obs.audit.SummaryAuditor` re-validates
        #: summary/store invariants after every unsubscribe, propagation
        #: period and full refresh (plus an O(#brokers) dedup-capacity
        #: check per publish), and brokers cross-check compiled-vs-
        #: reference match parity on every event.
        self.paranoid = paranoid_enabled() if paranoid is None else bool(paranoid)
        self.auditor: Optional[SummaryAuditor] = (
            SummaryAuditor(schema) if self.paranoid else None
        )
        #: The deployment-wide ``c2`` capacity; every broker's store
        #: enforces it at subscribe time (:class:`~repro.summary
        #: .maintenance.IdSpaceExhausted`) so overflow can never surface
        #: as a codec error deep inside a propagation period.
        self.max_subscriptions = max_subscriptions
        self.id_codec = IdCodec(
            num_brokers=topology.num_brokers,
            max_subscriptions=max_subscriptions,
            num_attributes=len(schema),
        )
        self.wire = WireCodec(schema, self.id_codec, value_width)
        self.message_codec = MessageCodec(self.wire)

        self.propagation_metrics = NetworkMetrics()
        self.event_metrics = NetworkMetrics()
        if latency is not None and network_cls is not None:
            raise ValueError("pass either latency or network_cls, not both")
        if latency is not None:
            self.network: Network = TimedNetwork(
                topology, self.message_codec, self.propagation_metrics, latency
            )
        elif network_cls is not None:
            self.network = network_cls(
                topology,
                self.message_codec,
                self.propagation_metrics,
                **(network_options or {}),
            )
        else:
            self.network = Network(topology, self.message_codec, self.propagation_metrics)
        if reliability is not None:
            # Layer ACK/retransmit delivery over whatever transport was
            # configured (most usefully a LossyNetwork) — unless the
            # caller already built a ReliableNetwork via network_cls.
            if isinstance(self.network, ReliableNetwork):
                raise ValueError(
                    "network_cls already provides reliability; "
                    "drop the reliability= argument"
                )
            self.network = ReliableNetwork.wrap(self.network, policy=reliability)

        self._delivery_log: List[Delivery] = []
        self._delivery_listeners: List = []
        self.brokers: Dict[int, SummaryBroker] = {}
        for broker_id in topology.brokers:
            broker = self._create_broker(broker_id)
            broker.tracer = self.tracer
            broker.paranoid = self.paranoid
            self.brokers[broker_id] = broker
            self.network.attach(broker_id, _Dispatcher(self, broker_id))

        self.propagation = PropagationEngine(
            self.network, self.brokers, policy=propagation_policy,
            mode=propagation_mode,
        )
        self.router = EventRouter(self.network, self.brokers)
        self.propagation.tracer = self.tracer
        self.router.tracer = self.tracer
        self._wire_failure_listener()

    def _wire_failure_listener(self) -> None:
        """Let the router re-route searches the reliable transport gave up
        on.  The hook is duck-typed so plain/lossy/timed networks (which
        never report failures) need no special casing."""
        add_listener = getattr(self.network, "add_failure_listener", None)
        if add_listener is not None:
            add_listener(self._on_send_failure)

    def _on_send_failure(self, src: int, dst: int, message: Message) -> None:
        # Indirect through self.router so enable_locality/-virtual_degrees
        # router swaps keep working without re-registering the listener.
        self.router.handle_send_failure(src, dst, message)

    def _create_broker(self, broker_id: int) -> SummaryBroker:
        """Broker factory — extension systems override this hook."""
        return SummaryBroker(
            broker_id,
            self.schema,
            self.precision,
            on_delivery=self._record_delivery,
            dedup_capacity=self.dedup_capacity,
            max_subscriptions=self.max_subscriptions,
            suppress_covered=self.suppress_covered,
        )

    # -- client operations -------------------------------------------------------

    def subscribe(self, broker_id: int, subscription: Subscription) -> SubscriptionId:
        return self.brokers[broker_id].subscribe(subscription)

    def unsubscribe(self, broker_id: int, sid: SubscriptionId) -> bool:
        removed = self.brokers[broker_id].unsubscribe(sid)
        if removed and self.auditor is not None:
            # Unsubscription is exactly where summary/store divergence
            # starts (stale kept rows, stale period deltas) — re-validate
            # the affected broker while the trail is short.
            self.auditor.assert_clean(self.brokers[broker_id])
        return removed

    def run_propagation_period(self) -> Dict[str, int]:
        """Propagate pending batches (Algorithm 2); returns the phase's
        cumulative metric snapshot."""
        self.network.metrics = self.propagation_metrics
        self.propagation.run_period()
        if self.auditor is not None:
            self.auditor.assert_clean(self)
        return self.propagation_metrics.snapshot()

    def run_full_refresh(self) -> Dict[str, int]:
        """Rebuild and re-propagate complete summaries (post-churn)."""
        self.network.metrics = self.propagation_metrics
        self.propagation.run_full_refresh()
        if self.auditor is not None:
            self.auditor.assert_clean(self)
        return self.propagation_metrics.snapshot()

    def publish(self, broker_id: int, event: Event) -> PublishResult:
        """Inject an event (Algorithm 3) and run it to completion."""
        return self.publish_batch(broker_id, [event])

    def publish_batch(self, broker_id: int, events: List[Event]) -> PublishResult:
        """Inject a burst of events at one broker (Algorithm 3) and run
        them to completion; :meth:`publish` is the burst of one.

        The ingress broker's summary check runs once over the whole burst
        (:meth:`EventRouter.publish_batch` →
        :meth:`~repro.broker.broker.SummaryBroker.match_kept_many`), as in
        the live runtime's dispatch loop; routing decisions, notifications
        and deliveries are per-event identical to publishing each event on
        its own (see ``tests/broker/test_batch_differential.py``).  Returns
        one aggregate :class:`PublishResult` over the burst.
        """
        for event in events:
            self.schema.validate_event(event)
        self.network.metrics = self.event_metrics
        before = self.event_metrics.snapshot()
        mark = len(self._delivery_log)
        start = getattr(self.network, "now", None)
        self.event_metrics.record_match_batch(len(events))
        self.router.publish_batch(broker_id, events)
        self.network.run()
        if self.auditor is not None:
            # Publishing never mutates summaries; the cheap O(#brokers)
            # dedup-capacity check is the only invariant it can break.
            self.auditor.audit_dedup(self)
        after = self.event_metrics.snapshot()
        deliveries = self._delivery_log[mark:]
        stamps = [d.at for d in deliveries if d.at is not None]
        return PublishResult(
            deliveries=deliveries,
            hops=after["hops"] - before["hops"],
            messages=after["messages"] - before["messages"],
            bytes_sent=after["bytes_sent"] - before["bytes_sent"],
            latency_ms=max(stamps) - start if start is not None and stamps else None,
        )

    # -- measurement helpers ------------------------------------------------------

    def collect_metrics(self) -> MetricsRegistry:
        """One flat registry over every counter the system keeps (broker,
        both network phases, reliability, router, trace histograms)."""
        return collect_system_metrics(self)

    def total_summary_storage(self) -> int:
        """Total bytes of kept (multi-broker) summaries across all brokers —
        the storage metric of figure 11."""
        return sum(
            self.wire.summary_size(broker.kept_summary)
            for broker in self.brokers.values()
        )

    def storage_breakdown(self) -> Dict[int, int]:
        return {
            broker_id: self.wire.summary_size(broker.kept_summary)
            for broker_id, broker in self.brokers.items()
        }

    def total_suppressed(self) -> int:
        """Subscriptions currently covered (stored but never propagated)
        across all brokers — 0 when ``suppress_covered`` is off."""
        return sum(broker.suppressed for broker in self.brokers.values())

    def ground_truth_matches(self, event: Event) -> Set[Tuple[int, SubscriptionId]]:
        """Every (broker, sid) whose raw subscription matches the event —
        the oracle the routed deliveries must equal exactly."""
        matches: Set[Tuple[int, SubscriptionId]] = set()
        for broker_id, broker in self.brokers.items():
            for sid, subscription in broker.store.items():
                if subscription.matches(event):
                    matches.add((broker_id, sid))
        return matches

    @property
    def delivery_log(self) -> List[Delivery]:
        return list(self._delivery_log)

    # -- internals -------------------------------------------------------------------

    # -- delivery fan-out -----------------------------------------------------------

    def add_delivery_listener(self, listener) -> None:
        """Register a callable invoked as ``listener(delivery)`` for every
        delivery — how Event Displayers (consumers) hear about events."""
        self._delivery_listeners.append(listener)

    def remove_delivery_listener(self, listener) -> None:
        self._delivery_listeners.remove(listener)

    def _record_delivery(
        self, broker_id: int, sids: List[SubscriptionId], event: Event
    ) -> None:
        at = getattr(self.network, "now", None)
        for sid in sids:
            delivery = Delivery(broker=broker_id, sid=sid, event=event, at=at)
            self._delivery_log.append(delivery)
            for listener in self._delivery_listeners:
                listener(delivery)

    def _dispatch(self, dst: int, src: int, message: Message) -> None:
        if self.router.handle_message(dst, src, message):
            return
        reply = self.brokers[dst].receive_period_frame(src, message)
        if reply is not None:
            self.network.send(dst, src, reply)

    def __repr__(self) -> str:
        total = sum(len(broker.store) for broker in self.brokers.values())
        return (
            f"SummaryPubSub({self.topology.num_brokers} brokers, "
            f"{total} subscriptions, {self.precision.value})"
        )
