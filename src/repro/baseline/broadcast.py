"""The broadcast baseline (paper section 5.2).

"A baseline approach where all brokers broadcast their subscriptions to
all."  Every broker sends each new subscription to every other broker (the
network layer charges bytes x overlay path length, which is exactly the
paper's formula ``(brokers - 1) x average hops x brokers x sigma x
subscription size``).  Every broker therefore holds the complete global
subscription table, so events match at the publisher's broker and are
notified directly to the owning brokers.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.broker.core import DEFAULT_MAX_SUBSCRIPTIONS
from repro.broker.system import Delivery, PublishResult, SimulatedSystem
from repro.model.events import Event
from repro.model.ids import SubscriptionId
from repro.model.schema import Schema
from repro.model.subscriptions import Subscription
from repro.network.simulator import Network
from repro.network.topology import Topology
from repro.summary.matching import NaiveMatcher
from repro.summary.maintenance import SubscriptionStore
from repro.wire.codec import ValueWidth
from repro.wire.messages import (
    Message,
    NotifyMessage,
    SubscriptionBatchMessage,
)

__all__ = ["BroadcastPubSub"]


class _BroadcastBroker:
    """Broker state: own store + the full global table."""

    def __init__(self, broker_id: int, schema: Schema):
        self.broker_id = broker_id
        self.store = SubscriptionStore(schema, broker_id)
        self.global_table = NaiveMatcher()
        self.pending: List[Tuple[SubscriptionId, Subscription]] = []
        self.deliveries: List[Tuple[SubscriptionId, Event]] = []


class _Dispatcher:
    def __init__(self, system: "BroadcastPubSub", broker_id: int):
        self._system = system
        self._broker_id = broker_id

    def receive(self, src: int, message: Message) -> None:
        self._system._dispatch(self._broker_id, src, message)


class BroadcastPubSub(SimulatedSystem):
    """The everything-everywhere baseline system."""

    def __init__(
        self,
        topology: Topology,
        schema: Schema,
        value_width: ValueWidth = ValueWidth.F32,
        max_subscriptions: int = DEFAULT_MAX_SUBSCRIPTIONS,
    ):
        super().__init__(topology, schema, max_subscriptions, value_width)
        self.network = Network(topology, self.message_codec, self.propagation_metrics)
        self.brokers: Dict[int, _BroadcastBroker] = {}
        for broker_id in topology.brokers:
            self.brokers[broker_id] = _BroadcastBroker(broker_id, schema)
            self.network.attach(broker_id, _Dispatcher(self, broker_id))

    # -- client operations -------------------------------------------------------

    def subscribe(self, broker_id: int, subscription: Subscription) -> SubscriptionId:
        self.schema.validate_subscription(subscription)
        broker = self.brokers[broker_id]
        sid = broker.store.subscribe(subscription)
        broker.global_table.add(subscription, sid)
        broker.pending.append((sid, subscription))
        return sid

    def unsubscribe(self, broker_id: int, sid: SubscriptionId) -> bool:
        broker = self.brokers[broker_id]
        if broker.store.unsubscribe(sid) is None:
            return False
        broker.global_table.remove(sid)
        broker.pending = [(p, s) for p, s in broker.pending if p != sid]
        return True

    def run_propagation_period(self) -> Dict[str, int]:
        """Broadcast every pending subscription to every other broker."""
        self.network.metrics = self.propagation_metrics
        for broker in self.brokers.values():
            if not broker.pending:
                continue
            batch = SubscriptionBatchMessage(entries=tuple(broker.pending))
            broker.pending = []
            for other in self.topology.brokers:
                if other != broker.broker_id:
                    self.network.send(broker.broker_id, other, batch)
        self.network.run()
        return self.propagation_metrics.snapshot()

    def publish(self, broker_id: int, event: Event) -> PublishResult:
        """Match against the full local table; notify owners directly."""
        self.schema.validate_event(event)
        self.network.metrics = self.event_metrics
        before = self.event_metrics.snapshot()
        mark = len(self._delivery_log)
        broker = self.brokers[broker_id]
        matched = broker.global_table.match(event)
        by_owner: Dict[int, Set[SubscriptionId]] = {}
        for sid in matched:
            by_owner.setdefault(sid.broker, set()).add(sid)
        for owner, sids in sorted(by_owner.items()):
            if owner == broker_id:
                self._deliver(broker, sids, event)
            else:
                self.network.send(
                    broker_id, owner, NotifyMessage(event=event, matched=frozenset(sids))
                )
        self.network.run()
        return self._publish_result(before, mark)

    # -- measurement helpers ------------------------------------------------------

    def total_table_storage(self) -> int:
        """Total stored-subscription bytes across brokers (n x everything)."""
        total = 0
        for broker in self.brokers.values():
            for _sid, subscription in broker.global_table.subscriptions().items():
                total += self.wire.subscription_size(subscription)
        return total

    # -- internals -------------------------------------------------------------------

    def _deliver(
        self, broker: _BroadcastBroker, sids: Set[SubscriptionId], event: Event
    ) -> None:
        confirmed = broker.store.recheck(event, sids)
        for sid in sorted(confirmed):
            broker.deliveries.append((sid, event))
            self._delivery_log.append(
                Delivery(broker=broker.broker_id, sid=sid, event=event)
            )

    def _dispatch(self, dst: int, src: int, message: Message) -> None:
        broker = self.brokers[dst]
        if isinstance(message, SubscriptionBatchMessage):
            for sid, subscription in message.entries:
                broker.global_table.add(subscription, sid)
        elif isinstance(message, NotifyMessage):
            self._deliver(broker, set(message.matched), message.event)
        else:
            raise TypeError(f"broadcast broker cannot handle {type(message).__name__}")

    def __repr__(self) -> str:
        total = sum(len(broker.store) for broker in self.brokers.values())
        return f"BroadcastPubSub({self.topology.num_brokers} brokers, {total} subscriptions)"
