"""A functional Siena-style broker: covering-based routing tables.

This is the *real* comparator (subscription covering, not the probabilistic
evaluation model — that lives in :mod:`repro.siena.probmodel`):

* **Subscription propagation**: a subscription received from interface
  ``I`` (a neighbor, or the local clients) is recorded in the routing
  table under ``I`` and forwarded to every other neighbor ``J`` unless a
  subscription already forwarded to ``J`` covers it.
* **Event routing**: an event arriving from ``I`` is delivered to matching
  local subscriptions and forwarded to every other neighbor ``J`` whose
  table entry (subscriptions that *arrived from* ``J``) matches the event —
  the reverse-path rule: matched events "follow the paths setup by
  subscriptions".

Siena's interface-exclusion routing is loop-free only on acyclic
topologies; :class:`repro.siena.system.SienaPubSub` runs brokers on a
spanning tree when handed a cyclic overlay (as real Siena deployments do).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.broker.broker import DeliveryCallback
from repro.model.events import Event
from repro.model.ids import SubscriptionId
from repro.model.schema import Schema
from repro.model.subscriptions import Subscription
from repro.siena.poset import CoveringSet
from repro.summary.maintenance import SubscriptionStore

__all__ = ["SienaBroker", "LOCAL_INTERFACE"]

#: Interface id for the broker's own clients (never a valid broker id).
LOCAL_INTERFACE = -1


class SienaBroker:
    """State of one broker in the Siena-style comparator."""

    def __init__(
        self,
        broker_id: int,
        schema: Schema,
        neighbors: List[int],
        on_delivery: Optional[DeliveryCallback] = None,
    ):
        self.broker_id = broker_id
        self.schema = schema
        self.neighbors = list(neighbors)
        self.on_delivery = on_delivery
        self.store = SubscriptionStore(schema, broker_id)

        #: Routing table: interface -> subscriptions that arrived from it.
        self.table: Dict[int, CoveringSet] = {
            LOCAL_INTERFACE: CoveringSet(),
            **{neighbor: CoveringSet() for neighbor in self.neighbors},
        }
        #: Per-neighbor record of what we already forwarded (pruning state).
        self.forwarded: Dict[int, CoveringSet] = {
            neighbor: CoveringSet() for neighbor in self.neighbors
        }
        #: Subscriptions accepted since the last propagation flush.
        self.pending: List[Tuple[SubscriptionId, Subscription]] = []

        self.deliveries: List[Tuple[SubscriptionId, Event]] = []
        #: Raw subscription entries currently stored (table rows) — the
        #: storage metric counts these.
        self.stored_subscriptions = 0

    # -- subscription side ------------------------------------------------------

    def subscribe(self, subscription: Subscription) -> SubscriptionId:
        sid = self.store.subscribe(subscription)
        self.pending.append((sid, subscription))
        return sid

    def unsubscribe(self, sid: SubscriptionId) -> bool:
        # Siena unsubscription propagation is out of scope for the paper's
        # comparison; local removal keeps delivery exact here.
        return self.store.unsubscribe(sid) is not None

    def accept_subscription(
        self, interface: int, subscription: Subscription
    ) -> List[int]:
        """Record a subscription from ``interface``; return the neighbors it
        must be forwarded to (covering-pruned)."""
        if interface not in self.table:
            raise ValueError(
                f"broker {self.broker_id} has no interface {interface}"
            )
        if self.table[interface].add(subscription):
            self.stored_subscriptions += 1
        targets: List[int] = []
        for neighbor in self.neighbors:
            if neighbor == interface:
                continue
            if self.forwarded[neighbor].add(subscription):
                targets.append(neighbor)
        return targets

    # -- event side ----------------------------------------------------------------

    def route_event(self, interface: int, event: Event) -> List[int]:
        """Deliver locally and return the neighbors to forward to.

        ``interface`` is where the event came from (``LOCAL_INTERFACE``
        when published here); it is excluded from forwarding.
        """
        # Local delivery: check raw subscriptions (exact).
        matched = [
            sid for sid, subscription in sorted(self.store.items())
            if subscription.matches(event)
        ]
        self.deliveries.extend((sid, event) for sid in matched)
        if matched and self.on_delivery is not None:
            self.on_delivery(self.broker_id, matched, event)
        targets: List[int] = []
        for neighbor in self.neighbors:
            if neighbor == interface:
                continue
            if self.table[neighbor].matches_event(event):
                targets.append(neighbor)
        return targets

    def __repr__(self) -> str:
        return (
            f"SienaBroker(id={self.broker_id}, local={len(self.store)}, "
            f"stored={self.stored_subscriptions})"
        )
