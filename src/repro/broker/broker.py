"""The summary-centric broker (paper sections 3-4).

A :class:`SummaryBroker` owns:

* its clients' raw subscriptions (:class:`SubscriptionStore` — these never
  leave the broker; they allocate ids and index them exactly for the
  owner-side delivery match),
* the *pending batch* of subscriptions accepted since the last propagation
  period (the paper's sigma),
* the *kept* multi-broker summary — its own subscriptions merged with every
  summary received in past propagation periods — plus the matching
  ``Merged_Brokers`` set, and
* the open Algorithm-2 :class:`Period`, if any.  ``begin_period``,
  ``act_period`` and ``finish_period`` step it; the round-based
  :class:`~repro.broker.propagation.PropagationEngine` and the live
  :class:`~repro.runtime.server.BrokerRuntime` both drive those same
  transitions.

Message handling is split by concern: :mod:`repro.broker.propagation`
drives Algorithm 2 and :mod:`repro.broker.routing` implements Algorithm 3;
this module is the broker state they act on.
"""

from __future__ import annotations

from collections import OrderedDict
from operator import attrgetter
from typing import Callable, Collection, Dict, List, Optional, Set, Tuple

from repro.model.events import Event
from repro.model.ids import SubscriptionId
from repro.model.schema import Schema
from repro.model.subscriptions import Subscription
from repro.obs.tracing import NULL_TRACER
from repro.summary.compiled import CompiledMatcher
from repro.summary.covering import subscription_covers
from repro.summary.maintenance import SubscriptionStore
from repro.summary.precision import Precision
from repro.summary.summary import BrokerSummary
from repro.wire.codec import CodecError
from repro.wire.messages import (
    Message,
    SummaryDeltaMessage,
    SummaryMessage,
    SummaryRequestMessage,
)

__all__ = ["BROKEN_LINK", "SummaryBroker", "DeliveryCallback", "Period"]

#: Sort key of one broker's own ids: they share ``c1``, and ``c2`` is
#: unique, so this is :class:`SubscriptionId` order without its
#: Python-level comparisons.
_LOCAL_ID = attrgetter("local_id")

#: ``link_generations_in`` value of a link whose delta chain broke: no
#: ``base_generation`` equals it, so only a full summary re-opens the link.
BROKEN_LINK = -1

#: Called once per delivered event with every confirmed subscription:
#: ``(broker_id, subscription_ids_ascending, event)``.
DeliveryCallback = Callable[[int, List[SubscriptionId], Event], None]


class Period:
    """One broker's open Algorithm-2 propagation period.

    * ``adds`` — the summary the period's frame carries: the pending batch
      folded in when the broker acts, plus every summary received from
      peers this period;
    * ``brokers`` — the ``Merged_Brokers`` of ``adds``;
    * ``removed`` — the removal block: the ``removed_pending`` snapshot
      taken when the period opened plus every removal received from peers;
    * ``acted`` — whether the broker's one send opportunity has passed.
      Until it has, an unsubscribe of a propagated id rides ``removed``;
      afterwards it waits for the next period.
    """

    __slots__ = ("adds", "brokers", "removed", "acted")

    def __init__(self, adds: BrokerSummary, brokers: Set[int],
                 removed: Set[SubscriptionId]):
        self.adds = adds
        self.brokers = brokers
        self.removed = removed
        self.acted = False


class SummaryBroker:
    """State of one broker in the summary-based system."""

    #: Observability hooks.  Plain attributes (not ctor params) so the
    #: system — and the ext systems that override broker creation — can
    #: attach them after construction; the defaults cost one attribute
    #: check per use.  ``paranoid`` additionally enables the
    #: compiled-vs-reference parity cross-check inside :meth:`match_kept_many`
    #: and the owner-index-vs-recheck one inside :meth:`deliver`.
    tracer = NULL_TRACER
    paranoid = False

    def __init__(
        self,
        broker_id: int,
        schema: Schema,
        precision: Precision = Precision.COARSE,
        on_delivery: Optional[DeliveryCallback] = None,
        dedup_capacity: int = 4096,
        max_subscriptions: Optional[int] = None,
        suppress_covered: bool = True,
    ):
        if dedup_capacity < 1:
            raise ValueError("dedup capacity must be positive")
        self.broker_id = broker_id
        self.schema = schema
        self.precision = precision
        self.store = SubscriptionStore(schema, broker_id, max_subscriptions)
        self.on_delivery = on_delivery
        #: Lazily (re)built compiled snapshot of ``kept_summary``.
        self._compiled: Optional[CompiledMatcher] = None

        #: Subscriptions accepted since the last propagation period.
        self.pending: List[Tuple[SubscriptionId, Subscription]] = []

        #: Own + everything received in past periods (what events match on).
        self.kept_summary = BrokerSummary(schema, precision)
        #: Brokers whose subscriptions are inside ``kept_summary``.
        self.merged_brokers: Set[int] = {broker_id}

        #: The open Algorithm-2 period, or None between periods.  Only this
        #: class writes it: the period transitions and ``unsubscribe``.
        self.period: Optional[Period] = None

        # -- incremental (delta-mode) propagation state --
        #: Own ids unsubscribed after they were propagated; they ship as the
        #: removal block of the next period's delta frame.
        self.removed_pending: Set[SubscriptionId] = set()
        #: Per-directed-link delta generations: ``link_generations_out[dst]``
        #: is the generation of the last delta sent to ``dst``;
        #: ``link_generations_in[src]`` the last applied from ``src``.  A
        #: delta whose ``base_generation`` does not match the receiver's
        #: ``in`` entry is rejected (the chain broke — a refresh, restart or
        #: loss happened), the link is marked :data:`BROKEN_LINK` and the
        #: receiver falls back to requesting a full summary.
        self.link_generations_out: Dict[int, int] = {}
        self.link_generations_in: Dict[int, int] = {}
        #: Brokers whose knowledge each outgoing period link has carried:
        #: the union of the period's ``brokers`` over every frame
        #: :meth:`act_period` built, by target.  A resync reply hands that
        #: neighbor exactly this much back.
        self.link_brokers_out: Dict[int, Set[int]] = {}
        #: Delta frames rejected (each answered with a SUMMARY_REQUEST) and
        #: SUMMARY_REQUESTs answered with a resync snapshot.
        self.fallback_requests = 0
        self.fallback_replies = 0

        # -- covered-id suppression (folded in from repro.ext.hybrid) --
        #: Slot mask (over the store index) of the frontier of covering
        #: subscriptions: only frontier members are summarized and
        #: propagated; covered ids never hit the wire.  None without
        #: suppression.
        self._frontier: Optional[int] = 0 if suppress_covered else None
        #: coverer sid -> ids it suppresses (and the inverse map).
        self._covered_by: Dict[SubscriptionId, Set[SubscriptionId]] = {}
        self._coverer_of: Dict[SubscriptionId, SubscriptionId] = {}
        #: Unsubscribed frontier members -> the ids they covered at removal
        #: time.  Remote summaries keep naming a dead coverer until the
        #: removal block (or a refresh) reaches them, so notifications for
        #: the stale id must still expand to its former dependents — else
        #: the covered subscriptions silently lose deliveries during the
        #: churn window.  LRU-bounded like the dedup tables (full-summary
        #: mode never sheds remote ids incrementally, so entries have no
        #: natural expiry).
        self._ghost_covers: OrderedDict = OrderedDict()
        #: Live frontier member -> its *closure mask* over the store
        #: index's slots: its own bit plus the bits of the ids it covers.
        #: Kept exact wherever ``_covered_by`` changes; ``deliver`` ORs
        #: closures instead of expanding covered ids.  Its keys are the
        #: frontier members.  Empty without suppression, where every id
        #: stands for its own bit alone.
        self._closures: Dict[SubscriptionId, int] = {}

        # -- statistics --
        #: Consumer hand-offs so far; each one went to :attr:`on_delivery`.
        self.delivered = 0
        self.false_positive_notifies = 0
        self.events_examined = 0
        self.duplicates_suppressed = 0

        # -- at-least-once tolerance: recently seen publish ids (LRU) --
        self._routed_publishes: OrderedDict = OrderedDict()
        self._delivered_publishes: OrderedDict = OrderedDict()
        self._dedup_capacity = dedup_capacity

    # -- subscription side ----------------------------------------------------

    def subscribe(self, subscription: Subscription) -> SubscriptionId:
        """Accept a client subscription; it propagates at the next period.

        Under covered-id suppression a subscription subsumed by an existing
        frontier member is stored (it still allocates an id and takes part
        in the exact re-check) but never summarized or propagated: every
        event it matches also matches its coverer, so the coverer's
        presence in remote summaries already routes those events here.
        """
        sid = self.store.subscribe(subscription)
        if self._frontier is None or self._cover_or_join(sid, subscription):
            self.pending.append((sid, subscription))
        return sid

    def unsubscribe(self, sid: SubscriptionId) -> bool:
        """Drop a client subscription.

        The id is removed from the local kept summary immediately; remote
        kept summaries retain it until the removal propagates (the next
        delta period in delta mode, a full refresh otherwise), and their
        matches in the meantime are harmless — the exact re-check here
        drops them.

        The id must also leave the *in-flight period adds*: when an
        unsubscribe lands after this broker acted, the adds hold the id
        (it was pending when the act folded it), and ``finish_period``
        merges the adds into ``kept_summary`` — silently resurrecting the
        id until the next full refresh.  The
        :class:`~repro.obs.audit.SummaryAuditor`'s ``local-liveness`` check
        exists to catch exactly this divergence.

        Removal scheduling: an id still pending never left this broker and
        is not propagated at all.  Any other id may live in remote
        summaries: it lands in the period's removal block while the
        broker has not acted yet, otherwise in ``removed_pending`` for the
        next period.  ``c2`` values are never reused, so over-approximating
        removals is always safe.
        """
        # Read the bit before the store frees (and may later reuse) its slot.
        bit = self.store.index.bit_of(sid)
        if self.store.unsubscribe(sid) is None:
            return False
        if self._frontier is not None and sid in self._coverer_of:
            # Covered ids were never summarized nor propagated: dropping
            # one is a pure store-side operation.
            coverer = self._coverer_of.pop(sid)
            siblings = self._covered_by.get(coverer)
            if siblings is not None:
                siblings.discard(sid)
                if not siblings:
                    del self._covered_by[coverer]
            self._closures[coverer] &= ~bit
            return True
        was_pending = any(p_sid == sid for p_sid, _ in self.pending)
        self.pending = [(p_sid, p_sub) for p_sid, p_sub in self.pending if p_sid != sid]
        self.kept_summary.remove(sid)
        period = self.period
        if was_pending:
            pass  # never folded into any frame
        elif period is not None and not period.acted:
            period.removed.add(sid)  # rides this period's frame
        else:
            if period is not None:
                period.adds.remove(sid)
            self.removed_pending.add(sid)  # ships next period
        if sid in self._closures:
            self._frontier_remove(sid, bit)
        return True

    # -- the Algorithm-2 period (driven by PropagationEngine / BrokerRuntime) ----

    def begin_period(self) -> None:
        """Open a period.  Its removal block starts as a snapshot of
        ``removed_pending`` (not a move: unsubscribes after the act keep
        accumulating there for the next period)."""
        self.period = Period(
            BrokerSummary(self.schema, self.precision),
            {self.broker_id},
            set(self.removed_pending),
        )

    def act_period(self, target: Optional[int], full: bool = False) -> Optional[Message]:
        """Steps 1-2 of Algorithm 2: this broker's one send opportunity.

        Folds the pending batch into the period's adds and marks the period
        acted, then returns the frame for ``target`` (None without one): a
        :class:`SummaryDeltaMessage` chained on the ``target`` link's
        generation, or with ``full`` a :class:`SummaryMessage` that restarts
        that chain.  Subscriptions accepted after the act stay pending for
        the next period.
        """
        period = self.period
        if period is None:
            raise RuntimeError(f"broker {self.broker_id} acted outside a period")
        for sid, subscription in self.pending:
            period.adds.add(subscription, sid)
        self.pending = []
        period.acted = True
        if target is None:
            return None
        self.link_brokers_out.setdefault(target, set()).update(period.brokers)
        if full:
            return self.snapshot_frame(target, period.adds.copy(), period.brokers)
        base = self.link_generations_out.get(target, 0)
        generation = base + 1
        self.link_generations_out[target] = generation
        return SummaryDeltaMessage(
            adds=period.adds.copy(),
            removed=frozenset(period.removed),
            merged_brokers=frozenset(period.brokers),
            base_generation=base,
            generation=generation,
        )

    def snapshot_frame(
        self, dst: int, summary: BrokerSummary, brokers: Set[int]
    ) -> SummaryMessage:
        """A full-summary frame for ``dst``.  It restarts the delta chain
        towards ``dst``: the next delta bases itself on generation 0."""
        self.link_generations_out[dst] = 0
        return SummaryMessage(summary=summary, merged_brokers=frozenset(brokers))

    def absorb_summary(self, src: int, summary: BrokerSummary, brokers: Set[int]) -> None:
        """Handle a received SummaryMessage: merge it into the open period,
        or straight into the kept summary between periods (a full summary
        is ground truth).

        It also restarts the delta chain of the ``src`` link: the next
        delta from ``src`` must base itself on this snapshot
        (``base_generation == 0``).
        """
        summary = self._foreign(summary)
        period = self.period
        if period is None:
            self.kept_summary.merge(summary)
            self.merged_brokers |= brokers
        else:
            period.adds.merge(summary)
            period.brokers |= brokers
        self.link_generations_in[src] = 0

    def absorb_delta(
        self,
        src: int,
        adds: BrokerSummary,
        removed: Set[SubscriptionId],
        brokers: Set[int],
        base_generation: int,
        generation: int,
    ) -> bool:
        """Handle a received SummaryDeltaMessage.

        Returns False between periods, or when the delta does not chain
        onto the last frame applied from ``src`` (its ``base_generation``
        disagrees with ``link_generations_in``), which happens after a full
        refresh, a restart, or message loss.  A mismatch marks the link
        :data:`BROKEN_LINK` and touches no other state; the caller reacts
        by requesting a full summary from ``src``.

        The mark keeps the chain broken until a full summary lands.  The
        sender restarts its chain at 0 when it sends the resync snapshot,
        so if that snapshot is lost while this end still read 0 (its first
        delta on the link was the one lost, or it restarted cold), the
        sender's next delta would chain on and the snapshot's content would
        never be sent again.
        """
        period = self.period
        if period is None:
            return False
        if base_generation != self.link_generations_in.get(src, 0):
            self.link_generations_in[src] = BROKEN_LINK
            return False
        self.link_generations_in[src] = generation
        period.adds.merge(self._foreign(adds))
        period.removed |= removed
        period.brokers |= brokers
        return True

    def receive_period_frame(self, src: int, message: Message) -> Optional[Message]:
        """The receive side of Algorithm 2: absorb a SUMMARY or
        SUMMARY_DELTA from ``src``, or answer its SUMMARY_REQUEST.  Returns
        the frame to send back to ``src``, or None.

        A rejected delta is answered with a SUMMARY_REQUEST.  A request is
        answered with a resync snapshot: the current knowledge (the kept
        summary plus the open period's adds) of every broker this link has
        ever carried towards ``src`` (:attr:`link_brokers_out`), and of no
        other.  Handing over more would be a promise the link cannot keep:
        the requester would list those brokers in ``Merged_Brokers``, BROCLI
        would skip them, and their later subscriptions, which never travel
        this link, would be lost.  Handing over less (the open period's
        adds alone) makes the same promise for the brokers the link carried
        in earlier periods, without their earlier ids.  The requester's own
        ids never go back either: after a cold rejoin they are dead.
        """
        if isinstance(message, SummaryDeltaMessage):
            if self.absorb_delta(
                src,
                message.adds,
                set(message.removed),
                set(message.merged_brokers),
                message.base_generation,
                message.generation,
            ):
                return None
            self.fallback_requests += 1
            tracer = self.tracer
            if tracer.enabled:
                tracer.record(
                    "delta_rejected", broker=self.broker_id,
                    trace_id=message.generation, src=src,
                    base_generation=message.base_generation,
                )
            return SummaryRequestMessage(generation=message.generation)
        if isinstance(message, SummaryMessage):
            self.absorb_summary(src, message.summary, set(message.merged_brokers))
            return None
        if isinstance(message, SummaryRequestMessage):
            self.fallback_replies += 1
            flow = self.link_brokers_out.get(src, set()) - {src}
            snapshot = self.kept_summary.copy()
            if self.period is not None:
                snapshot.merge(self.period.adds)
            for sid in snapshot.all_ids():
                if sid.broker not in flow:
                    snapshot.remove(sid)
            return self.snapshot_frame(src, snapshot, flow)
        return self.receive_extension_frame(src, message)

    def receive_extension_frame(self, src: int, message: Message) -> Optional[Message]:
        """A peer frame outside Algorithms 2 and 3.  There is none here;
        an extension broker that floods frames of its own takes them by
        overriding this."""
        raise CodecError(f"unexpected peer frame {type(message).__name__}")

    def _foreign(self, summary: BrokerSummary) -> BrokerSummary:
        """``summary`` without this broker's own ids.  A peer can echo them
        back (equal-degree neighbours send to each other), possibly after
        they died here; what this broker summarizes of itself comes from
        its own store only."""
        own = [sid for sid in summary.all_ids() if sid.broker == self.broker_id]
        if not own:
            return summary
        summary = summary.copy()
        for sid in own:
            summary.remove(sid)
        return summary

    def finish_period(self) -> None:
        """Close the period: fold its adds into the kept multi-broker
        summary.

        Adds merge first, then the period's removal block applies on top —
        so a subscription added and removed within the same period ends up
        removed (``c2`` values are never reused, which makes this ordering
        unconditionally safe).  The pending batch is left alone: only the
        act folds it, so a period closed before its act (a draining
        broker's) keeps the batch for the next period to ship.  The same
        holds for the removal block: an acted period shipped it and
        retires it from ``removed_pending``; an unacted one shipped
        nothing, so all of it stays queued.
        """
        period = self.period
        if period is None:
            return
        self.kept_summary.merge(period.adds)
        if period.removed:
            for sid in period.removed:
                self.kept_summary.remove(sid)
            if period.acted:
                self.removed_pending -= period.removed
            else:
                self.removed_pending |= period.removed
        self.merged_brokers |= period.brokers
        self.period = None

    def rebuild_own_summary(self) -> BrokerSummary:
        """A fresh summary of all currently stored subscriptions — or, under
        covered-id suppression, of the covering frontier only (used by
        full-refresh periods after heavy unsubscription churn)."""
        if self._frontier is None:
            return self.store.build_summary(self.precision)
        summary = BrokerSummary(self.schema, self.precision)
        for sid, subscription in self.refresh_batch():
            summary.add(subscription, sid)
        return summary

    def refresh_batch(self) -> List[Tuple[SubscriptionId, Subscription]]:
        """The subscriptions a full-refresh period re-propagates: every
        stored one, or only the frontier members under suppression."""
        if self._frontier is None:
            return list(self.store.items())
        get = self.store.get
        return [(sid, get(sid)) for sid in sorted(self._closures)]

    def reset_merged_state(self) -> None:
        """Forget remote knowledge (full-refresh support): the kept summary
        restarts from the local store.

        The open period closes too: a refresh started while a period is in
        flight must not let ``finish_period`` fold the pre-reset adds (old
        remote knowledge) back into the freshly rebuilt kept summary.

        Delta-chain state resets with it: pending removals are pointless
        (the refresh re-ships ground truth), both generation maps clear, so
        any in-flight delta that arrives after the refresh fails the
        ``base_generation`` check and falls back to a full summary instead
        of silently merging stale rows, and so do the link flows.
        """
        if self._frontier is not None:
            self._rebuild_suppression()
        self.kept_summary = self.rebuild_own_summary()
        self.merged_brokers = {self.broker_id}
        self.pending = []
        self.period = None
        self.removed_pending = set()
        self.link_generations_out = {}
        self.link_generations_in = {}
        self.link_brokers_out = {}

    def reset_for_refresh(self) -> None:
        """:meth:`reset_merged_state`, then queue the refresh batch as the
        next period's pending batch: a full-refresh period re-propagates
        it from scratch."""
        self.reset_merged_state()
        self.pending = self.refresh_batch()

    # -- covered-id suppression internals ---------------------------------------

    @property
    def suppress_covered(self) -> bool:
        """Whether covered-id suppression is active on this broker."""
        return self._frontier is not None

    @property
    def suppressed(self) -> int:
        """Stored subscriptions currently suppressed (covered by a frontier
        member).  Exact by construction: every covered id holds exactly one
        entry in ``_coverer_of``."""
        return len(self._coverer_of)

    @property
    def frontier_size(self) -> int:
        """Frontier members (0 with suppression disabled — everything is
        propagated, nothing is tracked)."""
        return len(self._closures)

    def _coverer_for(
        self, sid: SubscriptionId, subscription: Subscription
    ) -> Optional[SubscriptionId]:
        """The frontier member that covers ``subscription`` (stored as
        ``sid``), or None: the first, in slot order, of the store index's
        covering candidates among the frontier that really covers it."""
        index = self.store.index
        candidates = index.covering_within(subscription, sid.attr_mask, self._frontier)
        get = self.store.get
        for member in index.ids_of(candidates):
            if subscription_covers(get(member), subscription):
                return member
        return None

    def _cover_or_join(self, sid: SubscriptionId, subscription: Subscription) -> bool:
        """File ``sid`` under a frontier member that covers it, or make it
        a frontier member; returns whether it joined the frontier."""
        bit = self.store.index.bit_of(sid)
        coverer = self._coverer_for(sid, subscription)
        if coverer is None:
            self._frontier |= bit
            self._closures[sid] = bit
            return True
        self._coverer_of[sid] = coverer
        self._covered_by.setdefault(coverer, set()).add(sid)
        self._closures[coverer] |= bit
        return False

    def _frontier_remove(self, sid: SubscriptionId, bit: int) -> None:
        """Drop a frontier member and re-home the ids it covered.

        Strictly local (the incremental rebuild): only ``sid``'s own
        covered set is reconsidered.  Each orphan either re-homes under a
        surviving coverer or promotes into the frontier — entering
        ``kept_summary`` (it must match local events immediately) and
        ``pending`` (remote brokers learn it at this broker's next act:
        this period's if it has not acted yet).  Orphans are
        processed in sorted order, so a promoted orphan can deterministically
        become the coverer of its later siblings.  ``bit`` is the slot bit
        ``sid`` held.
        """
        self._frontier &= ~bit
        del self._closures[sid]
        orphans = self._covered_by.pop(sid, set())
        survivors = {
            orphan for orphan in orphans if self.store.get(orphan) is not None
        }
        if survivors:
            # Remote brokers notify on the dead coverer's id until the
            # removal propagates; route those to its former dependents.
            self._ghost_covers[sid] = frozenset(survivors)
            if len(self._ghost_covers) > self._dedup_capacity:
                self._ghost_covers.popitem(last=False)
        for orphan in sorted(orphans):
            del self._coverer_of[orphan]
            subscription = self.store.get(orphan)
            if subscription is None or not self._cover_or_join(orphan, subscription):
                continue
            self.kept_summary.add(subscription, orphan)
            self.pending.append((orphan, subscription))

    def _rebuild_suppression(self) -> None:
        """Recompute the frontier and cover maps from the store (refresh
        support — unsubscribe churn may have left the frontier larger than
        it needs to be, since adds never evict)."""
        self._clear_suppression()
        for sid, subscription in sorted(self.store.items()):
            self._cover_or_join(sid, subscription)

    def rebuild_suppression_from_state(self) -> None:
        """Reconstruct suppression maps after a snapshot restore.

        The restored ``kept_summary``/``pending`` say which own ids are
        visible to the outside world — those must stay frontier members
        (demoting one would strand a summarized id without its exact-check
        owner mapping).  Every other stored id re-homes under that frontier
        or promotes.
        """
        if self._frontier is None:
            return
        visible = {
            sid for sid in self.kept_summary.all_ids() if sid.broker == self.broker_id
        }
        visible |= {sid for sid, _ in self.pending}
        self._clear_suppression()
        bit_of = self.store.index.bit_of
        rest: List[Tuple[SubscriptionId, Subscription]] = []
        for sid, subscription in sorted(self.store.items()):
            if sid in visible:
                bit = bit_of(sid)
                self._frontier |= bit
                self._closures[sid] = bit
            else:
                rest.append((sid, subscription))
        for sid, subscription in rest:
            if self._cover_or_join(sid, subscription):
                # Snapshot predates suppression (or was taken with it off):
                # promote so the id keeps matching.
                self.kept_summary.add(subscription, sid)
                self.pending.append((sid, subscription))

    def _clear_suppression(self) -> None:
        """Reset the frontier and the cover maps to empty."""
        self._frontier = 0
        self._covered_by = {}
        self._coverer_of = {}
        self._closures = {}

    # -- event side -------------------------------------------------------------

    def first_routing_of(self, publish_id: int) -> bool:
        """Whether this broker has NOT yet run the routing step for this
        publish (duplicate EVENT messages return False and are dropped).
        ``publish_id == 0`` (unidentified) always counts as first."""
        if publish_id == 0:
            return True
        if publish_id in self._routed_publishes:
            # LRU, not FIFO: a re-seen id is hot (retransmissions in
            # flight) and must outlive colder entries.
            self._routed_publishes.move_to_end(publish_id)
            self.duplicates_suppressed += 1
            return False
        self._remember(self._routed_publishes, publish_id)
        return True

    def _remember(self, table: OrderedDict, publish_id: int) -> None:
        """Insert at the MRU end, evicting the LRU entry past capacity."""
        table[publish_id] = None
        if len(table) > self._dedup_capacity:
            table.popitem(last=False)

    def clear_dedup(self) -> None:
        """Forget all remembered publish ids (crash-recovery support: a
        restored broker must not treat a new router generation's ids as
        duplicates of pre-snapshot traffic)."""
        self._routed_publishes.clear()
        self._delivered_publishes.clear()

    # -- dedup introspection (read-only; the auditor checks capacity) --

    @property
    def dedup_capacity(self) -> int:
        """Configured bound of each publish-id LRU table."""
        return self._dedup_capacity

    @property
    def routed_dedup_size(self) -> int:
        """Entries currently held by the routing-side dedup table."""
        return len(self._routed_publishes)

    @property
    def delivered_dedup_size(self) -> int:
        """Entries currently held by the delivery-side dedup table."""
        return len(self._delivered_publishes)

    def match_kept_many(self, events: List[Event]) -> List[Set[SubscriptionId]]:
        """Match a burst of events against the kept multi-broker summary,
        in order (one event is a burst of one).

        This goes through a :class:`CompiledMatcher` snapshot of the kept
        summary, which checks its staleness once per burst: the snapshot
        tracks the summary's generation counter, so mutations from
        propagation periods (``merge``), subscriptions (``add``) and
        unsubscriptions (``remove``) transparently trigger a lazy rebuild.
        Each result is the id set of the reference walk
        :meth:`BrokerSummary.match` (see
        ``tests/summary/test_compiled_differential.py``).
        """
        self.events_examined += len(events)
        results = self._compiled_matcher().match_many(events)
        if self.paranoid:
            for event, matched in zip(events, results):
                self._check_match_parity(matched, event)
        return results

    def _compiled_matcher(self) -> CompiledMatcher:
        compiled = self._compiled
        if compiled is None or compiled.summary is not self.kept_summary:
            # ``reset_merged_state`` swaps in a brand-new summary object;
            # rebind the snapshot to whatever is current.
            compiled = self._compiled = CompiledMatcher(self.kept_summary)
        return compiled

    def _check_match_parity(self, fast: Set[SubscriptionId], event: Event) -> None:
        """Paranoid-mode cross-check: the compiled snapshot must agree with
        the reference Algorithm-1 walk on every event (cold path — only
        runs when :attr:`paranoid` is set)."""
        reference = self.kept_summary.match(event)
        if fast == reference:
            return
        from repro.obs.audit import AuditError, Violation

        raise AuditError([Violation(
            "match-parity", self.broker_id,
            f"compiled/reference disagree on {event!r}: "
            f"only-compiled={sorted(fast - reference)[:3]} "
            f"only-reference={sorted(reference - fast)[:3]}",
        )])

    def deliver(
        self, sids: Collection[SubscriptionId], event: Event, publish_id: int = 0
    ) -> Set[SubscriptionId]:
        """Owner-side delivery: exact match among the candidates, then one
        hand-off of every confirmed id to :attr:`on_delivery`.

        Returns the confirmed ids; the rest of the candidates are the COARSE
        false positives (or ids unsubscribed since the summary was
        propagated).  Duplicate notifications for an already-delivered
        publish are suppressed (at-least-once transport tolerance).

        Under covered-id suppression the notified ids only name frontier
        members (covered ids are in no summary).  Each one stands for its
        closure mask — itself plus the ids it covers — so the candidates
        are the OR of the closures: exactly the ids the unsuppressed system
        would have been notified about, since a covered subscription
        matches a subset of what its coverer matches.  The store's
        :class:`~repro.summary.owner.OwnerIndex` then confirms them in one
        bitset match.
        """
        if publish_id:
            if publish_id in self._delivered_publishes:
                self._delivered_publishes.move_to_end(publish_id)  # LRU touch
                self.duplicates_suppressed += 1
                return set()
            self._remember(self._delivered_publishes, publish_id)
        index = self.store.index
        closures = self._closures
        bit_of = index.bit_of
        candidates = 0
        dead = 0
        for sid in sids:
            closure = closures.get(sid) or bit_of(sid)
            if not closure:
                candidates, dead = self._expand_dead(sids)
                break
            candidates |= closure
        notified = candidates.bit_count() + dead
        tracer = self.tracer
        if tracer.enabled:
            with tracer.span(
                "recheck", broker=self.broker_id, trace_id=publish_id,
                candidates=notified,
            ) as span:
                confirmed = index.match_within(event, candidates)
                count = confirmed.bit_count()
                span.note(confirmed=count, false_positives=notified - count)
        else:
            confirmed = index.match_within(event, candidates)
            count = confirmed.bit_count()
        false_positives = notified - count
        order = sorted(index.ids_of(confirmed), key=_LOCAL_ID) if count else []
        if self.paranoid:
            self._check_owner_parity(sids, event, order, false_positives)
        self.false_positive_notifies += false_positives
        self.delivered += count
        if order:
            on_delivery = self.on_delivery
            if on_delivery is not None:
                on_delivery(self.broker_id, order, event)
            if tracer.enabled:
                tracer.record(
                    "delivery", broker=self.broker_id, trace_id=publish_id,
                    count=count,
                )
        return set(order)

    def _expand_dead(self, sids: Collection[SubscriptionId]) -> Tuple[int, int]:
        """Candidates of a notification naming an id that is not live:
        ``(candidate mask, distinct dead ids)``.

        A foreign id is a routing bug (``ValueError``).  A dead id counts
        as a false positive; if it was a coverer when it died (a *ghost* —
        remote summaries keep naming it until its removal propagates), it
        stands for the ids it covered then, resolved through their current
        closures, or through their own ghosts when they died too."""
        closures = self._closures
        bit_of = self.store.index.bit_of
        candidates = 0
        dead: Set[SubscriptionId] = set()
        stack = list(sids)
        while stack:
            sid = stack.pop()
            closure = closures.get(sid) or bit_of(sid)
            if closure:
                candidates |= closure
                continue
            if sid.broker != self.broker_id:
                raise ValueError(
                    f"delivery asked for {sid}, owned by broker {sid.broker}, "
                    f"at broker {self.broker_id}"
                )
            if sid not in dead:
                dead.add(sid)
                stack.extend(self._ghost_covers.get(sid, ()))
        return candidates, len(dead)

    def _check_owner_parity(
        self,
        sids: Collection[SubscriptionId],
        event: Event,
        order: List[SubscriptionId],
        false_positives: int,
    ) -> None:
        """Paranoid-mode cross-check of one delivery against the
        per-candidate oracle walk (cold path — only runs when
        :attr:`paranoid` is set)."""
        from repro.obs.audit import AuditError, SummaryAuditor

        violation = SummaryAuditor.check_owner_parity(
            self, sids, event, order, false_positives
        )
        if violation is not None:
            raise AuditError([violation])

    def __repr__(self) -> str:
        return (
            f"SummaryBroker(id={self.broker_id}, subs={len(self.store)}, "
            f"knows={sorted(self.merged_brokers)})"
        )
