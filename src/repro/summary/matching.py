"""The event matching algorithm (paper section 3.3, Algorithm 1).

Given an incoming event and a (possibly multi-broker) summary:

1. For every attribute of the event, scan the summary structures for
   satisfied constraints and collect the corresponding subscription-id
   lists, keeping a per-id counter of how many lists it appeared in.
2. A collected id is a match iff its counter equals the number of
   attributes its subscription constrains — read directly off the id's
   ``c3`` popcount, with no per-subscription state.
3. (Step 3 of the paper — forwarding the event plus matched ids to the
   owning broker — is the routing layer's job; see
   :mod:`repro.broker.routing`.)

``match_event`` is the reference path: the test oracle of the compiled
bitset matcher (:class:`repro.summary.compiled.CompiledMatcher`) that
brokers run in production.  ``match_event_detailed`` exposes the
intermediate per-attribute lists for tests and teaching examples, and
:class:`NaiveMatcher` is the subscription-centric ground truth used to
validate the summary-based matcher and as the comparison baseline for the
section 5.2.4 computational study.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Mapping, Set

from repro.model.events import Event
from repro.model.ids import SubscriptionId
from repro.model.subscriptions import Subscription

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.summary.summary import BrokerSummary

__all__ = ["match_event", "match_event_detailed", "MatchDetails", "NaiveMatcher"]


def match_event(summary: "BrokerSummary", event: Event) -> Set[SubscriptionId]:
    """All subscription ids in ``summary`` matched by ``event``."""
    counters: Dict[SubscriptionId, int] = {}
    for name, _type, value in event.items():
        for sid in summary.collect_attribute_ids(name, value):
            counters[sid] = counters.get(sid, 0) + 1
    return {
        sid for sid, count in counters.items() if count == sid.attribute_count
    }


@dataclass
class MatchDetails:
    """The intermediate state of Algorithm 1, for inspection."""

    per_attribute: Dict[str, Set[SubscriptionId]] = field(default_factory=dict)
    counters: Dict[SubscriptionId, int] = field(default_factory=dict)
    matched: Set[SubscriptionId] = field(default_factory=set)

    @property
    def candidates(self) -> Set[SubscriptionId]:
        """Every id collected in step 1 (matched or not)."""
        return set(self.counters)

    def partials(self) -> Set[SubscriptionId]:
        """Ids collected but not fully matched (counter < popcount(c3))."""
        return self.candidates - self.matched


def match_event_detailed(summary: "BrokerSummary", event: Event) -> MatchDetails:
    """Algorithm 1 with its intermediate per-attribute lists preserved."""
    details = MatchDetails()
    for name, _type, value in event.items():
        ids = summary.collect_attribute_ids(name, value)
        if ids:
            details.per_attribute[name] = ids
        for sid in ids:
            details.counters[sid] = details.counters.get(sid, 0) + 1
    details.matched = {
        sid
        for sid, count in details.counters.items()
        if count == sid.attribute_count
    }
    return details


class NaiveMatcher:
    """The subscription-centric baseline: test every subscription directly.

    This is both the ground truth for validating the summary matcher (an
    EXACT summary must agree with it perfectly; a COARSE summary must report
    a superset) and the "competing approach" cost yardstick of section
    5.2.4.
    """

    __slots__ = ("_subscriptions",)

    def __init__(self) -> None:
        self._subscriptions: Dict[SubscriptionId, Subscription] = {}

    def add(self, subscription: Subscription, sid: SubscriptionId) -> None:
        if sid in self._subscriptions:
            raise ValueError(f"duplicate subscription id {sid}")
        self._subscriptions[sid] = subscription

    def remove(self, sid: SubscriptionId) -> bool:
        return self._subscriptions.pop(sid, None) is not None

    def __len__(self) -> int:
        return len(self._subscriptions)

    def subscriptions(self) -> Mapping[SubscriptionId, Subscription]:
        return dict(self._subscriptions)

    def match(self, event: Event) -> Set[SubscriptionId]:
        return {
            sid
            for sid, subscription in self._subscriptions.items()
            if subscription.matches(event)
        }
