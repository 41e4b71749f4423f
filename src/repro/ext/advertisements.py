"""Advertisements in the summary paradigm (section 2.2 + section 6).

The paper sidesteps Siena's advertisement mechanism in its comparison but
notes "this mechanism can be employed by our system as well".  This module
employs it:

* an **advertisement** is, structurally, a subscription — a conjunction of
  constraints describing the event space a producer will publish;
* producers register advertisements at their broker, which floods them
  (advertisements are few and long-lived; the flood is charged like any
  other traffic);
* a broker receiving a client subscription first checks it against every
  known advertisement: a subscription **intersecting no advertised event
  space can never fire**, so it is stored for delivery but neither
  summarized nor propagated — its id never costs a byte anywhere;
* when a *new* advertisement arrives, dormant subscriptions that now
  intersect are promoted and propagate at the next period.

The intersection test is sound-conservative (it may say "possibly
intersecting" when a cleverer prover could refute it, but never the
reverse), so correctness is preserved: for arithmetic attributes it is
exact interval intersection; for strings it uses
:func:`repro.summary.patterns.patterns_disjoint`.

Publishing is checked against the publisher broker's local advertisements
(``enforce=True``, the default): an unadvertised event is the producer's
contract violation, reported as :class:`AdvertisementError`.  With
``enforce=False`` unadvertised events are routed normally — but dormant
subscriptions may then legitimately miss them, which is exactly the
semantics advertisements define.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.broker.broker import SummaryBroker
from repro.broker.system import PublishResult, SummaryPubSub
from repro.model.constraints import Constraint
from repro.model.events import Event
from repro.model.ids import SubscriptionId
from repro.model.subscriptions import Subscription
from repro.summary.intervals import intervals_for_conjunction
from repro.summary.patterns import pattern_for_constraint, patterns_disjoint
from repro.wire.messages import AdvertisementMessage, Message

__all__ = [
    "Advertisement",
    "AdvertisementError",
    "AdvertisingBroker",
    "AdvertisingPubSub",
    "constraints_intersect",
    "subscription_intersects_advertisement",
]

#: An advertisement is structurally a subscription: a constraint
#: conjunction over the events the producer will publish.
Advertisement = Subscription


class AdvertisementError(RuntimeError):
    """A producer published an event outside its advertised space."""


# -- intersection ------------------------------------------------------------


def constraints_intersect(
    first: Sequence[Constraint], second: Sequence[Constraint]
) -> bool:
    """Sound test that two constraint conjunctions on ONE attribute admit a
    common value.  True may be conservative; False is a proof."""
    if first[0].attr_type.is_string != second[0].attr_type.is_string:
        raise ValueError("cannot intersect constraints of different families")
    if first[0].attr_type.is_string:
        for a in first:
            pattern_a = pattern_for_constraint(a)
            for b in second:
                if patterns_disjoint(pattern_a, pattern_for_constraint(b)):
                    return False
        return True
    joint = intervals_for_conjunction(list(first) + list(second))
    return not joint.is_empty


def subscription_intersects_advertisement(
    subscription: Subscription, advertisement: Advertisement
) -> bool:
    """Whether some event conforming to ``advertisement`` could match
    ``subscription``.

    Only attributes constrained by *both* sides can conflict: an attribute
    the advertisement leaves free can take any value the subscription
    wants, and vice versa (events may carry extra attributes).
    """
    for name in subscription.attribute_names & advertisement.attribute_names:
        if not constraints_intersect(
            subscription.constraints_on(name), advertisement.constraints_on(name)
        ):
            return False
    return True


# -- the advertising broker -----------------------------------------------------


class AdvertisingBroker(SummaryBroker):
    """A summary broker with an advertisement registry and dormant set."""

    def __init__(self, *args, **kwargs):
        # Advertisement filtering is its own suppression mechanism (the
        # dormant set); the covering frontier would sit unused beside it
        # and trip the suppression-accounting audit.
        kwargs["suppress_covered"] = False
        super().__init__(*args, **kwargs)
        #: All advertisements known here, keyed by their flooded id.
        self.advertisements: Dict[SubscriptionId, Advertisement] = {}
        #: Local advertisements (what our producers may publish).
        self.local_advertisements: Dict[SubscriptionId, Advertisement] = {}
        #: Subscriptions stored but not summarized (no advertisement match).
        self.dormant: Dict[SubscriptionId, Subscription] = {}
        self._next_adv_id = 0

    # -- advertisements ------------------------------------------------------

    def mint_advertisement_id(self) -> SubscriptionId:
        adv_id = SubscriptionId(
            broker=self.broker_id,
            local_id=self._next_adv_id,
            attr_mask=1,  # advertisements don't participate in c3 matching
        )
        self._next_adv_id += 1
        return adv_id

    def register_advertisement(
        self, adv_id: SubscriptionId, advertisement: Advertisement, local: bool
    ) -> List[Tuple[SubscriptionId, Subscription]]:
        """Record an advertisement; returns dormant subscriptions it wakes."""
        self.advertisements[adv_id] = advertisement
        if local:
            self.local_advertisements[adv_id] = advertisement
        promoted: List[Tuple[SubscriptionId, Subscription]] = []
        for sid in sorted(self.dormant):
            subscription = self.dormant[sid]
            if subscription_intersects_advertisement(subscription, advertisement):
                promoted.append((sid, subscription))
        for sid, subscription in promoted:
            del self.dormant[sid]
            self.kept_summary.add(subscription, sid)
            self.pending.append((sid, subscription))
        return promoted

    def receive_extension_frame(self, src: int, message: Message) -> Optional[Message]:
        """A flooded ADVERTISEMENT from ``src``: register each entry."""
        if not isinstance(message, AdvertisementMessage):
            return super().receive_extension_frame(src, message)
        for adv_id, advertisement in message.entries:
            self.register_advertisement(adv_id, advertisement, local=False)
        return None

    def event_is_advertised(self, event: Event) -> bool:
        """Whether the event conforms to some local advertisement."""
        return any(
            advertisement.matches(event)
            for advertisement in self.local_advertisements.values()
        )

    # -- subscription side, advertisement-filtered ------------------------------

    def subscribe(self, subscription: Subscription) -> SubscriptionId:
        sid = self.store.subscribe(subscription)
        if any(
            subscription_intersects_advertisement(subscription, advertisement)
            for advertisement in self.advertisements.values()
        ):
            self.pending.append((sid, subscription))
        else:
            self.dormant[sid] = subscription
        return sid

    def unsubscribe(self, sid: SubscriptionId) -> bool:
        self.dormant.pop(sid, None)
        return super().unsubscribe(sid)


class AdvertisingPubSub(SummaryPubSub):
    """The summary system with advertisement-filtered propagation; its
    brokers take flooded ADVERTISEMENT frames through the same
    :meth:`~repro.broker.core.BrokerCore.receive` as every other frame."""

    broker_cls = AdvertisingBroker

    def __init__(self, *args, enforce: bool = True, **kwargs):
        self.enforce = enforce
        super().__init__(*args, **kwargs)

    # -- producer operations ------------------------------------------------------

    def advertise(
        self, broker_id: int, advertisement: Advertisement
    ) -> SubscriptionId:
        """Register a producer's advertisement and flood it to all brokers."""
        self.schema.validate_subscription(advertisement)
        broker: AdvertisingBroker = self.brokers[broker_id]  # type: ignore[assignment]
        adv_id = broker.mint_advertisement_id()
        broker.register_advertisement(adv_id, advertisement, local=True)
        self.network.metrics = self.propagation_metrics
        message = AdvertisementMessage(entries=((adv_id, advertisement),))
        for other in self.topology.brokers:
            if other != broker_id:
                self.network.send(broker_id, other, message)
        self.network.run()
        return adv_id

    def publish_batch(self, broker_id: int, events: List[Event]) -> PublishResult:
        """Publish a burst (``publish`` is the burst of one), refusing any
        unadvertised event under ``enforce`` before anything is routed."""
        broker: AdvertisingBroker = self.brokers[broker_id]  # type: ignore[assignment]
        for event in events:
            if self.enforce and not broker.event_is_advertised(event):
                raise AdvertisementError(
                    f"broker {broker_id} has no advertisement covering {event!r}"
                )
        return super().publish_batch(broker_id, events)

    # -- measurement ---------------------------------------------------------------

    def total_dormant(self) -> int:
        return sum(
            len(broker.dormant)  # type: ignore[attr-defined]
            for broker in self.brokers.values()
        )
