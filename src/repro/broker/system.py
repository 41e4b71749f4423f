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
from repro.broker.core import (
    DEFAULT_MAX_SUBSCRIPTIONS,
    BrokerCore,
    deployment_codec,
    paranoid_auditor,
)
from repro.broker.propagation import PropagationEngine, TargetPolicy
from repro.broker.routing import EventRouter
from repro.model.events import Event
from repro.model.ids import SubscriptionId
from repro.model.schema import Schema
from repro.model.subscriptions import Subscription
from repro.network.latency import LatencyModel, TimedNetwork
from repro.network.metrics import NetworkMetrics
from repro.network.reliable import ReliableNetwork, RetryPolicy
from repro.network.simulator import Network
from repro.network.topology import Topology
from repro.obs.audit import SummaryAuditor
from repro.obs.metrics import MetricsRegistry, collect_system_metrics
from repro.obs.tracing import NULL_TRACER, Tracer
from repro.summary.precision import Precision
from repro.wire.codec import ValueWidth

__all__ = ["SummaryPubSub", "SimulatedSystem", "Delivery", "PublishResult"]


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


class SimulatedSystem:
    """What every simulated system (this one, and the Siena and broadcast
    comparators) keeps the same way: the deployment codec, the metrics of
    both phases, the delivery log, and ``brokers`` each with a raw
    ``store``."""

    def __init__(
        self, topology: Topology, schema: Schema, max_subscriptions: int,
        value_width: ValueWidth,
    ):
        self.topology = topology
        self.schema = schema
        self.message_codec = deployment_codec(
            topology, schema, max_subscriptions, value_width
        )
        self.wire = self.message_codec.wire
        self.id_codec = self.wire.id_codec
        self.propagation_metrics = NetworkMetrics()
        self.event_metrics = NetworkMetrics()
        self._delivery_log: List[Delivery] = []

    def ground_truth_matches(self, event: Event) -> Set[Tuple[int, SubscriptionId]]:
        """Every (broker, sid) whose raw subscription matches the event —
        the oracle the routed deliveries must equal exactly."""
        return {
            (broker_id, sid)
            for broker_id, broker in self.brokers.items()
            for sid, subscription in broker.store.items()
            if subscription.matches(event)
        }

    @property
    def delivery_log(self) -> List[Delivery]:
        return list(self._delivery_log)

    def _publish_result(
        self, before: Dict[str, int], mark: int, start: Optional[float] = None
    ) -> PublishResult:
        """One publish's cost since the ``before`` event-metrics snapshot,
        its deliveries since log position ``mark``, and on a timed network
        its latency since ``start``."""
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


class SummaryPubSub(SimulatedSystem):
    """The complete summary-centric pub/sub system on a simulated overlay:
    one :class:`~repro.broker.core.BrokerCore` per broker, attached to the
    network as that broker's frame handler."""

    #: What every core builds; extension systems name their own class.
    broker_cls: type = SummaryBroker

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
        super().__init__(topology, schema, max_subscriptions, value_width)
        self.precision = precision
        #: Per-broker publish-id LRU size (at-least-once dedup window).
        self.dedup_capacity = dedup_capacity
        #: Event-lifecycle tracer shared by router/propagation/brokers;
        #: :data:`~repro.obs.tracing.NULL_TRACER` (one attribute check per
        #: stage) unless a live :class:`~repro.obs.tracing.Tracer` is given.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Paranoid mode (see :func:`~repro.broker.core.paranoid_auditor`)
        #: also audits the whole system after every period and refresh.
        self.auditor: Optional[SummaryAuditor] = paranoid_auditor(schema, paranoid)
        self.paranoid = self.auditor is not None
        #: The deployment-wide ``c2`` capacity; every broker's store
        #: enforces it at subscribe time (:class:`~repro.summary
        #: .maintenance.IdSpaceExhausted`) so overflow can never surface
        #: as a codec error deep inside a propagation period.
        self.max_subscriptions = max_subscriptions
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

        self._delivery_listeners: List = []
        #: Every broker, filled in as each core joins the router.
        self.brokers: Dict[int, SummaryBroker] = {}
        self.cores: Dict[int, BrokerCore] = {}
        self._router = EventRouter(self.network, self.brokers)
        for broker_id in topology.brokers:
            core = self.cores[broker_id] = BrokerCore(
                broker_id, schema, self.network, self._router,
                precision=precision, max_subscriptions=max_subscriptions,
                dedup_capacity=dedup_capacity, suppress_covered=suppress_covered,
                on_delivery=self._record_delivery, policy=propagation_policy,
                tracer=self.tracer, auditor=self.auditor, broker_cls=self.broker_cls,
            )
            self.network.attach(broker_id, core)

        self.propagation = PropagationEngine(
            self.network, self.cores, mode=propagation_mode
        )
        self.propagation.tracer = self.tracer
        # A reliable transport reports the sends it gave up on; the router
        # re-routes those searches (duck-typed: plain, lossy and timed
        # networks never report failures).
        add_listener = getattr(self.network, "add_failure_listener", None)
        if add_listener is not None:
            add_listener(
                lambda src, dst, frame: self.router.handle_send_failure(src, dst, frame)
            )

    @property
    def router(self) -> EventRouter:
        """The one Algorithm-3 router of the system."""
        return self._router

    @router.setter
    def router(self, router: EventRouter) -> None:
        """Swap the router (as :mod:`repro.ext.locality` does): every core
        routes through the new one, traced like the old."""
        router.tracer = self.tracer
        self._router = router
        for core in self.cores.values():
            core.router = router

    # -- client operations -------------------------------------------------------

    def subscribe(self, broker_id: int, subscription: Subscription) -> SubscriptionId:
        return self.cores[broker_id].subscribe(subscription)

    def unsubscribe(self, broker_id: int, sid: SubscriptionId) -> bool:
        return self.cores[broker_id].unsubscribe(sid)

    def run_propagation_period(self) -> Dict[str, int]:
        """Propagate pending batches (Algorithm 2); returns the phase's
        cumulative metric snapshot."""
        return self._propagate(self.propagation.run_period)

    def run_full_refresh(self) -> Dict[str, int]:
        """Rebuild and re-propagate complete summaries (post-churn)."""
        return self._propagate(self.propagation.run_full_refresh)

    def _propagate(self, period) -> Dict[str, int]:
        self.network.metrics = self.propagation_metrics
        period()
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
        (:meth:`BrokerCore.publish` → :meth:`EventRouter.publish_batch` →
        :meth:`~repro.broker.broker.SummaryBroker.match_kept_many`), as in
        the live runtime's dispatch loop; routing decisions, notifications
        and deliveries are per-event identical to publishing each event on
        its own (see ``tests/broker/test_batch_differential.py``).  Returns
        one aggregate :class:`PublishResult` over the burst.
        """
        self.network.metrics = self.event_metrics
        before = self.event_metrics.snapshot()
        mark = len(self._delivery_log)
        start = getattr(self.network, "now", None)
        self.cores[broker_id].publish(events)
        self.network.run()
        return self._publish_result(before, mark, start)

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

    def __repr__(self) -> str:
        total = sum(len(broker.store) for broker in self.brokers.values())
        return (
            f"SummaryPubSub({self.topology.num_brokers} brokers, "
            f"{total} subscriptions, {self.precision.value})"
        )
