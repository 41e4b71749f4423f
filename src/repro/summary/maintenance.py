"""Summary maintenance: subscription stores, id allocation, and rebuilds.

The paper notes that maintaining summaries in the face of updates is part of
the design ("algorithms ... for the maintenance of subscriptions in the face
of updates") but omits details for space.  Our engineering choices, stated
explicitly:

* Every broker keeps its *own* clients' raw subscriptions in a
  :class:`SubscriptionStore` — these never leave the broker, so the
  summary-centric bandwidth/storage benefits are untouched.  The store is
  what allocates the ``c2`` local ids and keeps the exact
  :class:`~repro.summary.owner.OwnerIndex` over them, through which the
  owner re-checks deliveries — what makes COARSE summaries safe
  end-to-end.  :meth:`SubscriptionStore.recheck`, one
  :meth:`Subscription.matches` per candidate, is the oracle that index is
  tested and audited against.
* Unsubscription removes the id from every summary row immediately
  (cheap, keeps matching correct) but does not re-narrow generalized rows —
  a COARSE row cannot remember which boundary belonged to whom.
  :class:`MaintainedSummary` therefore tracks removals and rebuilds the
  summary from the store once enough garbage accumulates, restoring the
  compaction level a fresh summary would have.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Optional, Set, Tuple

from repro.model.events import Event
from repro.model.ids import SubscriptionId
from repro.model.schema import Schema
from repro.model.subscriptions import Subscription
from repro.summary.owner import OwnerIndex
from repro.summary.precision import Precision
from repro.summary.summary import BrokerSummary

__all__ = ["IdSpaceExhausted", "SubscriptionStore", "MaintainedSummary"]


class IdSpaceExhausted(RuntimeError):
    """The broker's ``c2`` id space is used up.

    Raised *at subscribe time* when a store configured with
    ``max_subscriptions`` would mint a local id the deployment's
    :class:`~repro.model.ids.IdCodec` cannot encode.  Without the cap the
    overflow only surfaced as a ``ValueError`` from ``IdCodec.pack`` deep
    inside the next propagation period — long after the client believed
    its subscription was accepted.
    """


class SubscriptionStore:
    """A broker's raw subscription table with ``c2`` id allocation.

    ``max_subscriptions`` (optional) caps the id *counter*, mirroring the
    codec's ``c2`` field width: ids are never reused, so the cap limits
    total mints, not concurrent live subscriptions — exactly the wire
    format's constraint.
    """

    def __init__(
        self,
        schema: Schema,
        broker_id: int,
        max_subscriptions: Optional[int] = None,
    ):
        if broker_id < 0:
            raise ValueError("broker id must be non-negative")
        if max_subscriptions is not None and max_subscriptions < 1:
            raise ValueError("max_subscriptions must be positive when given")
        self.schema = schema
        self.broker_id = broker_id
        self.max_subscriptions = max_subscriptions
        self._subscriptions: Dict[SubscriptionId, Subscription] = {}
        self._next_local_id = 0
        #: Exact slot-mask index over the stored subscriptions: the owner's
        #: delivery match (:meth:`SummaryBroker.deliver`).
        self.index = OwnerIndex(schema)

    # -- membership ----------------------------------------------------------

    def _check_capacity(self, local_id: int) -> None:
        if self.max_subscriptions is not None and local_id >= self.max_subscriptions:
            raise IdSpaceExhausted(
                f"broker {self.broker_id} has minted all "
                f"{self.max_subscriptions} local subscription ids the "
                f"deployment's id codec can encode (c2 space exhausted); "
                f"ids are never reused, so this counts total subscribes, "
                f"not live subscriptions"
            )

    def subscribe(self, subscription: Subscription) -> SubscriptionId:
        """Store a subscription and mint its (c1, c2, c3) id.

        Raises :class:`IdSpaceExhausted` (not a deep codec error at
        wire-encode time) when the configured ``c2`` space is used up.
        """
        self.schema.validate_subscription(subscription)
        self._check_capacity(self._next_local_id)
        sid = SubscriptionId(
            broker=self.broker_id,
            local_id=self._next_local_id,
            attr_mask=self.schema.mask_of(subscription),
        )
        self._next_local_id += 1
        self._subscriptions[sid] = subscription
        self.index.add(sid, subscription)
        return sid

    def unsubscribe(self, sid: SubscriptionId) -> Optional[Subscription]:
        subscription = self._subscriptions.pop(sid, None)
        if subscription is not None:
            self.index.remove(sid, subscription)
        return subscription

    @property
    def next_local_id(self) -> int:
        """The next ``c2`` value to be minted (snapshot/restore support)."""
        return self._next_local_id

    def restore(self, sid: SubscriptionId, subscription: Subscription) -> None:
        """Re-insert a previously-minted entry (snapshot restore).

        The id counter advances past the restored id so future mints can
        never collide with it.
        """
        if sid.broker != self.broker_id:
            raise ValueError(
                f"cannot restore {sid} into broker {self.broker_id}'s store"
            )
        if sid in self._subscriptions:
            raise ValueError(f"duplicate restore of {sid}")
        self.schema.validate_subscription(subscription)
        self._check_capacity(sid.local_id)
        self._subscriptions[sid] = subscription
        self.index.add(sid, subscription)
        self._next_local_id = max(self._next_local_id, sid.local_id + 1)

    def advance_watermark(self, next_local_id: int) -> None:
        """Ensure future mints start at or beyond ``next_local_id`` —
        restores a snapshot's counter even when trailing ids were
        unsubscribed before the snapshot."""
        self._next_local_id = max(self._next_local_id, next_local_id)

    def get(self, sid: SubscriptionId) -> Optional[Subscription]:
        return self._subscriptions.get(sid)

    def __len__(self) -> int:
        return len(self._subscriptions)

    def __contains__(self, sid: SubscriptionId) -> bool:
        return sid in self._subscriptions

    def items(self) -> Iterator[Tuple[SubscriptionId, Subscription]]:
        return iter(self._subscriptions.items())

    def ids(self) -> Set[SubscriptionId]:
        return set(self._subscriptions)

    # -- summary interop --------------------------------------------------------

    def build_summary(self, precision: Precision = Precision.COARSE) -> BrokerSummary:
        """A fresh summary of everything currently stored."""
        summary = BrokerSummary(self.schema, precision)
        for sid, subscription in self._subscriptions.items():
            summary.add(subscription, sid)
        return summary

    def recheck(self, event: Event, candidates: Iterable[SubscriptionId]) -> Set[SubscriptionId]:
        """Exact re-check of summary-matched ids against raw subscriptions.

        Filters the false positives a COARSE summary may produce, and also
        drops ids whose subscription has since been removed.  Only ids owned
        by this broker can be checked; foreign ids are rejected loudly —
        receiving one indicates a routing bug.

        The per-candidate oracle: live delivery matches through
        :attr:`index` instead, and paranoid mode holds the two equal.
        """
        confirmed: Set[SubscriptionId] = set()
        for sid in candidates:
            if sid.broker != self.broker_id:
                raise ValueError(
                    f"re-check asked for {sid}, owned by broker {sid.broker}, "
                    f"at broker {self.broker_id}"
                )
            subscription = self._subscriptions.get(sid)
            if subscription is not None and subscription.matches(event):
                confirmed.add(sid)
        return confirmed


class MaintainedSummary:
    """A broker summary kept in sync with a store, with periodic rebuilds.

    ``rebuild_threshold`` is the fraction of removals (since the last
    rebuild) over the current live count that triggers re-summarization.
    """

    def __init__(
        self,
        store: SubscriptionStore,
        precision: Precision = Precision.COARSE,
        rebuild_threshold: float = 0.5,
    ):
        if not 0.0 < rebuild_threshold:
            raise ValueError("rebuild threshold must be positive")
        self.store = store
        self.precision = precision
        self.rebuild_threshold = rebuild_threshold
        self.summary = store.build_summary(precision)
        self.rebuild_count = 0
        self._removals_since_rebuild = 0

    def subscribe(self, subscription: Subscription) -> SubscriptionId:
        sid = self.store.subscribe(subscription)
        self.summary.add(subscription, sid)
        return sid

    def unsubscribe(self, sid: SubscriptionId) -> bool:
        removed = self.store.unsubscribe(sid)
        if removed is None:
            return False
        self.summary.remove(sid)
        self._removals_since_rebuild += 1
        if self._should_rebuild():
            self.rebuild()
        return True

    def _should_rebuild(self) -> bool:
        live = max(1, len(self.store))
        return (self._removals_since_rebuild / live) >= self.rebuild_threshold

    def rebuild(self) -> None:
        """Re-summarize from raw subscriptions, restoring full compaction."""
        self.summary = self.store.build_summary(self.precision)
        self.rebuild_count += 1
        self._removals_since_rebuild = 0

    def match(self, event: Event) -> Set[SubscriptionId]:
        return self.summary.match(event)

    def match_confirmed(self, event: Event) -> Set[SubscriptionId]:
        """Summary match followed by the exact re-check."""
        return self.store.recheck(event, self.summary.match(event))
