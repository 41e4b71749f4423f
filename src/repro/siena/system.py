"""The functional Siena-style pub/sub system facade.

Mirrors :class:`repro.broker.system.SummaryPubSub` API-for-API so
experiments and tests can swap systems.  Differences, by design:

* brokers exchange *raw subscriptions* (covering-pruned), not summaries;
* events follow the reverse paths set up by subscriptions;
* routing runs on a spanning tree of the given overlay (Siena's
  interface-exclusion routing requires an acyclic topology — handed a
  cyclic overlay we BFS-root a tree at the highest-degree broker, which is
  what a Siena deployment's static configuration would do).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import networkx as nx

from repro.broker.core import DEFAULT_MAX_SUBSCRIPTIONS
from repro.broker.system import Delivery, PublishResult, SimulatedSystem
from repro.model.events import Event
from repro.model.ids import SubscriptionId
from repro.model.schema import Schema
from repro.model.subscriptions import Subscription
from repro.network.simulator import Network
from repro.network.topology import Topology
from repro.siena.broker import LOCAL_INTERFACE, SienaBroker
from repro.wire.codec import ValueWidth
from repro.wire.messages import (
    EventMessage,
    Message,
    SubscriptionBatchMessage,
)

__all__ = ["SienaPubSub"]


class _Dispatcher:
    def __init__(self, system: "SienaPubSub", broker_id: int):
        self._system = system
        self._broker_id = broker_id

    def receive(self, src: int, message: Message) -> None:
        self._system._dispatch(self._broker_id, src, message)


class SienaPubSub(SimulatedSystem):
    """Covering-based comparator system on a (tree) overlay."""

    def __init__(
        self,
        topology: Topology,
        schema: Schema,
        value_width: ValueWidth = ValueWidth.F32,
        max_subscriptions: int = DEFAULT_MAX_SUBSCRIPTIONS,
    ):
        super().__init__(topology, schema, max_subscriptions, value_width)
        self.full_topology = topology
        self.topology = self._routing_tree(topology)
        self.network = Network(self.topology, self.message_codec, self.propagation_metrics)
        self.brokers: Dict[int, SienaBroker] = {}
        for broker_id in self.topology.brokers:
            broker = SienaBroker(
                broker_id,
                schema,
                neighbors=self.topology.neighbors(broker_id),
                on_delivery=self._record_delivery,
            )
            self.brokers[broker_id] = broker
            self.network.attach(broker_id, _Dispatcher(self, broker_id))

    @staticmethod
    def _routing_tree(topology: Topology) -> Topology:
        if topology.is_tree():
            return topology
        root = max(topology.brokers, key=lambda b: (topology.degree(b), -b))
        edges = list(nx.bfs_edges(topology.graph, root))
        return Topology.from_edges(edges)

    # -- client operations -------------------------------------------------------

    def subscribe(self, broker_id: int, subscription: Subscription) -> SubscriptionId:
        self.schema.validate_subscription(subscription)
        return self.brokers[broker_id].subscribe(subscription)

    def unsubscribe(self, broker_id: int, sid: SubscriptionId) -> bool:
        return self.brokers[broker_id].unsubscribe(sid)

    def run_propagation_period(self) -> Dict[str, int]:
        """Flood every broker's pending subscriptions (covering-pruned)."""
        self.network.metrics = self.propagation_metrics
        for broker in self.brokers.values():
            outgoing: Dict[int, List[Tuple[SubscriptionId, Subscription]]] = {}
            for sid, subscription in broker.pending:
                for target in broker.accept_subscription(LOCAL_INTERFACE, subscription):
                    outgoing.setdefault(target, []).append((sid, subscription))
            broker.pending = []
            for target, entries in sorted(outgoing.items()):
                self.network.send(
                    broker.broker_id,
                    target,
                    SubscriptionBatchMessage(entries=tuple(entries)),
                )
        self.network.run()
        return self.propagation_metrics.snapshot()

    def publish(self, broker_id: int, event: Event) -> PublishResult:
        self.schema.validate_event(event)
        self.network.metrics = self.event_metrics
        before = self.event_metrics.snapshot()
        mark = len(self._delivery_log)
        for target in self.brokers[broker_id].route_event(LOCAL_INTERFACE, event):
            self.network.send(
                broker_id, target, EventMessage(event=event, brocli=frozenset())
            )
        self.network.run()
        return self._publish_result(before, mark)

    # -- measurement helpers ------------------------------------------------------

    def total_table_storage(self) -> int:
        """Total bytes of routing-table subscriptions across all brokers —
        Siena's side of the figure-11 storage comparison."""
        total = 0
        for broker in self.brokers.values():
            for covering_set in broker.table.values():
                for subscription in covering_set:
                    total += self.wire.subscription_size(subscription)
        return total

    # -- internals -------------------------------------------------------------------

    def _record_delivery(
        self, broker_id: int, sids: List[SubscriptionId], event: Event
    ) -> None:
        self._delivery_log.extend(
            Delivery(broker=broker_id, sid=sid, event=event) for sid in sids
        )

    def _dispatch(self, dst: int, src: int, message: Message) -> None:
        broker = self.brokers[dst]
        if isinstance(message, SubscriptionBatchMessage):
            outgoing: Dict[int, List[Tuple[SubscriptionId, Subscription]]] = {}
            for sid, subscription in message.entries:
                for target in broker.accept_subscription(src, subscription):
                    outgoing.setdefault(target, []).append((sid, subscription))
            for target, entries in sorted(outgoing.items()):
                self.network.send(dst, target, SubscriptionBatchMessage(tuple(entries)))
        elif isinstance(message, EventMessage):
            for target in broker.route_event(src, message.event):
                self.network.send(
                    dst, target, EventMessage(event=message.event, brocli=frozenset())
                )
        else:
            raise TypeError(
                f"Siena broker cannot handle {type(message).__name__}"
            )

    def __repr__(self) -> str:
        total = sum(len(broker.store) for broker in self.brokers.values())
        return f"SienaPubSub({self.topology.num_brokers} brokers, {total} subscriptions)"
