"""The summary-centric broker (paper sections 3-4).

A :class:`SummaryBroker` owns:

* its clients' raw subscriptions (:class:`SubscriptionStore` — these never
  leave the broker; they allocate ids and perform the exact re-check),
* the *pending batch* of subscriptions accepted since the last propagation
  period (the paper's sigma),
* the *kept* multi-broker summary — its own subscriptions merged with every
  summary received in past propagation periods — plus the matching
  ``Merged_Brokers`` set, and
* per-period propagation scratch state (Algorithm 2).

Message handling is split by concern: :mod:`repro.broker.propagation`
drives Algorithm 2 and :mod:`repro.broker.routing` implements Algorithm 3;
this module is the broker state they act on.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.model.events import Event
from repro.model.ids import SubscriptionId
from repro.model.schema import Schema
from repro.model.subscriptions import Subscription
from repro.obs.tracing import NULL_TRACER
from repro.summary.compiled import CompiledMatcher
from repro.summary.maintenance import SubscriptionStore
from repro.summary.precision import Precision
from repro.summary.summary import BrokerSummary

__all__ = ["SummaryBroker", "DeliveryCallback", "MATCHERS"]

#: Valid values for the ``matcher`` option: ``"reference"`` walks the live
#: summary structures (Algorithm 1 exactly as the paper states it; the
#: default, used by all figure-reproduction code), ``"compiled"`` matches
#: against a flat :class:`~repro.summary.compiled.CompiledMatcher` snapshot
#: that self-invalidates on summary mutation (the production fast path).
MATCHERS = ("reference", "compiled")

#: Called when an event is delivered to a subscription's consumer:
#: ``(broker_id, subscription_id, event)``.
DeliveryCallback = Callable[[int, SubscriptionId, Event], None]


class SummaryBroker:
    """State of one broker in the summary-based system."""

    #: Observability hooks.  Plain attributes (not ctor params) so the
    #: system — and the ext systems that override broker creation — can
    #: attach them after construction; the defaults cost one attribute
    #: check per use.  ``paranoid`` additionally enables the
    #: compiled-vs-reference parity cross-check inside :meth:`match_kept`.
    tracer = NULL_TRACER
    paranoid = False

    def __init__(
        self,
        broker_id: int,
        schema: Schema,
        precision: Precision = Precision.COARSE,
        on_delivery: Optional[DeliveryCallback] = None,
        matcher: str = "reference",
        dedup_capacity: int = 4096,
        max_subscriptions: Optional[int] = None,
        suppress_covered: bool = True,
    ):
        if matcher not in MATCHERS:
            raise ValueError(
                f"unknown matcher {matcher!r}; expected one of {MATCHERS}"
            )
        if dedup_capacity < 1:
            raise ValueError("dedup capacity must be positive")
        self.broker_id = broker_id
        self.schema = schema
        self.precision = precision
        self.matcher = matcher
        self.store = SubscriptionStore(schema, broker_id, max_subscriptions)
        self.on_delivery = on_delivery
        #: Lazily (re)built compiled snapshot of ``kept_summary`` when the
        #: ``"compiled"`` matcher is selected.
        self._compiled: Optional[CompiledMatcher] = None

        #: Subscriptions accepted since the last propagation period.
        self.pending: List[Tuple[SubscriptionId, Subscription]] = []

        #: Own + everything received in past periods (what events match on).
        self.kept_summary = BrokerSummary(schema, precision)
        #: Brokers whose subscriptions are inside ``kept_summary``.
        self.merged_brokers: Set[int] = {broker_id}

        # -- per-period propagation scratch (Algorithm 2) --
        self.delta_summary: Optional[BrokerSummary] = None
        self.delta_brokers: Set[int] = set()
        self.contacted: Set[int] = set()
        #: Whether this broker already sent its period delta (Algorithm 2
        #: acts once per period).  Unsubscribes consult it to decide whether
        #: a removal can still ride the current period or must wait.
        self.period_acted = False
        #: The pending sids folded into the in-flight period's delta at
        #: ``begin_period``.  ``finish_period`` retires exactly these from
        #: ``pending``: ids that arrive *mid-period* — a late subscribe, or
        #: an orphan promoted by ``_frontier_remove`` when its coverer
        #: unsubscribes — were never summarized into any frame and must
        #: stay pending for the next period, or remote brokers would never
        #: learn them.
        self._period_folded: Set[SubscriptionId] = set()
        #: True while a ``begin_period``-built delta is in flight — i.e. the
        #: delta already contains everything that was pending at period
        #: start.  The live runtime folds pending at *act* time instead
        #: (``BrokerRuntime.period_act``) and leaves this False, so
        #: mid-period frontier promotions know which regime they are in.
        self._delta_prefolded = False

        # -- incremental (delta-mode) propagation state --
        #: Own ids unsubscribed after they were propagated; they ship as the
        #: removal block of the next period's delta frame.
        self.removed_pending: Set[SubscriptionId] = set()
        #: Removal block of the in-flight period: the snapshot of
        #: ``removed_pending`` taken at ``begin_period`` plus every removal
        #: received from peers this period.  Applied to ``kept_summary`` by
        #: ``finish_period`` (after the delta adds merge — removal wins).
        self.delta_removed: Set[SubscriptionId] = set()
        #: Per-directed-link delta generations: ``link_generations_out[dst]``
        #: is the generation of the last delta sent to ``dst``;
        #: ``link_generations_in[src]`` the last applied from ``src``.  A
        #: delta whose ``base_generation`` does not match the receiver's
        #: ``in`` entry is rejected (the chain broke — a refresh, restart or
        #: loss happened) and the receiver falls back to requesting a full
        #: summary.
        self.link_generations_out: Dict[int, int] = {}
        self.link_generations_in: Dict[int, int] = {}

        # -- covered-id suppression (folded in from repro.ext.hybrid) --
        #: Frontier of covering subscriptions: only frontier members are
        #: summarized and propagated; covered ids never hit the wire.
        self._frontier = None  # Optional[SidCoveringIndex]
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
        if suppress_covered:
            # Deferred import: the siena package's __init__ imports the
            # siena broker, which imports this module — resolvable only
            # after both modules finish loading.
            from repro.siena.poset import SidCoveringIndex

            self._frontier = SidCoveringIndex()

        # -- statistics --
        self.deliveries: List[Tuple[SubscriptionId, Event]] = []
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
        if self._frontier is not None:
            coverer = self._frontier.find_coverer(subscription)
            if coverer is not None:
                self._coverer_of[sid] = coverer
                self._covered_by.setdefault(coverer, set()).add(sid)
                return sid
            self._frontier.add(sid, subscription)
        self.pending.append((sid, subscription))
        return sid

    def unsubscribe(self, sid: SubscriptionId) -> bool:
        """Drop a client subscription.

        The id is removed from the local kept summary immediately; remote
        kept summaries retain it until the removal propagates (the next
        delta period in delta mode, a full refresh otherwise), and their
        matches in the meantime are harmless — the exact re-check here
        drops them.

        The id must also leave the *in-flight period delta*: when an
        unsubscribe lands between ``begin_period`` and ``finish_period``,
        the delta still holds the id (it was pending when the period
        started), and ``finish_period`` merges the delta into
        ``kept_summary`` — silently resurrecting the id until the next
        full refresh.  The :class:`~repro.obs.audit.SummaryAuditor`'s
        ``local-liveness`` check exists to catch exactly this divergence.

        Removal scheduling (delta mode): an id that may already live in
        remote summaries lands in ``delta_removed`` when the current
        period's delta has not been sent yet, otherwise in
        ``removed_pending`` for the next period.  Ids that provably never
        left this broker (still pending, or scrubbed from an unsent delta)
        are not propagated at all.  ``c2`` values are never reused, so
        over-approximating removals is always safe.
        """
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
            return True
        was_pending = any(p_sid == sid for p_sid, _ in self.pending)
        self.pending = [(p_sid, p_sub) for p_sid, p_sub in self.pending if p_sid != sid]
        self.kept_summary.remove(sid)
        in_period = self.delta_summary is not None
        removed_from_delta = self.delta_summary.remove(sid) if in_period else False
        if removed_from_delta and not self.period_acted:
            pass  # scrubbed from the only frame that would have carried it
        elif was_pending and not (in_period and self.period_acted):
            pass  # never folded into any sent delta
        elif in_period and not self.period_acted:
            self.delta_removed.add(sid)  # rides this period's delta frame
        else:
            self.removed_pending.add(sid)  # ships next period
        if self._frontier is not None and sid in self._frontier:
            self._frontier_remove(sid)
        return True

    # -- propagation-period state (driven by PropagationEngine) -----------------

    def begin_period(self) -> None:
        """Build the delta summary of this period's new subscriptions."""
        delta = BrokerSummary(self.schema, self.precision)
        for sid, subscription in self.pending:
            delta.add(subscription, sid)
        self._period_folded = {sid for sid, _ in self.pending}
        self._delta_prefolded = True
        self.delta_summary = delta
        self.delta_brokers = {self.broker_id}
        self.contacted = set()
        # Snapshot (without clearing — unsubscribes landing mid-period
        # after the delta was sent keep accumulating for the next one).
        self.delta_removed = set(self.removed_pending)
        self.period_acted = False

    def absorb_summary(self, src: int, summary: BrokerSummary, brokers: Set[int]) -> None:
        """Handle a received SummaryMessage: merge into the period delta.

        A full summary also restarts the delta-generation chain of the
        ``src`` link: the next delta from ``src`` must base itself on this
        snapshot (``base_generation == 0``).
        """
        if self.delta_summary is None:
            raise RuntimeError(
                f"broker {self.broker_id} received a summary outside a "
                f"propagation period"
            )
        self.delta_summary.merge(summary)
        self.delta_brokers |= brokers
        self.contacted.add(src)
        self.link_generations_in[src] = 0

    def absorb_summary_snapshot(
        self, src: int, summary: BrokerSummary, brokers: Set[int]
    ) -> None:
        """Absorb a full summary at *any* time, even between periods.

        The live runtime's fallback resync (chain mismatch -> full-summary
        reply) can straddle a period close — a broker restarted mid-run may
        request or receive snapshots while no period is open.  A full
        summary is ground truth, so between periods it folds straight into
        the kept summary instead of the (absent) period delta.
        """
        if self.delta_summary is not None:
            self.absorb_summary(src, summary, brokers)
            return
        self.kept_summary.merge(summary)
        self.merged_brokers |= set(brokers)
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

        Returns False — *without touching any state* — when the delta does
        not chain onto the last frame applied from ``src`` (its
        ``base_generation`` disagrees with ``link_generations_in``), which
        happens after a full refresh, a restart, or message loss.  The
        caller reacts by requesting a full summary from ``src``.
        """
        if self.delta_summary is None:
            return False  # between periods: can't fold, ask for a snapshot
        if base_generation != self.link_generations_in.get(src, 0):
            return False
        self.link_generations_in[src] = generation
        self.delta_summary.merge(adds)
        self.delta_removed |= removed
        self.delta_brokers |= brokers
        self.contacted.add(src)
        return True

    def finish_period(self) -> None:
        """Fold the period's delta into the kept multi-broker summary.

        Adds merge first, then the period's removal block applies on top —
        so a subscription added and removed within the same period ends up
        removed (``c2`` values are never reused, which makes this ordering
        unconditionally safe).
        """
        if self.delta_summary is None:
            return
        self.kept_summary.merge(self.delta_summary)
        if self.delta_removed:
            for sid in self.delta_removed:
                self.kept_summary.remove(sid)
            self.removed_pending -= self.delta_removed
        self.merged_brokers |= self.delta_brokers
        self.delta_summary = None
        self.delta_brokers = set()
        self.delta_removed = set()
        # Retire only what this period's delta actually carried: ids that
        # arrived after ``begin_period`` (mid-period subscribes, orphans
        # promoted by a coverer's unsubscribe) still await propagation.
        self.pending = [
            (sid, sub) for sid, sub in self.pending
            if sid not in self._period_folded
        ]
        self._period_folded = set()
        self._delta_prefolded = False
        self.period_acted = False

    def rebuild_own_summary(self) -> BrokerSummary:
        """A fresh summary of all currently stored subscriptions — or, under
        covered-id suppression, of the covering frontier only (used by
        full-refresh periods after heavy unsubscription churn)."""
        if self._frontier is None:
            return self.store.build_summary(self.precision)
        summary = BrokerSummary(self.schema, self.precision)
        for sid, subscription in sorted(self._frontier.items()):
            summary.add(subscription, sid)
        return summary

    def refresh_batch(self) -> List[Tuple[SubscriptionId, Subscription]]:
        """The subscriptions a full-refresh period re-propagates: every
        stored one, or only the frontier members under suppression."""
        if self._frontier is None:
            return list(self.store.items())
        return sorted(self._frontier.items())

    def reset_merged_state(self) -> None:
        """Forget remote knowledge (full-refresh support): the kept summary
        restarts from the local store.

        The per-period propagation scratch is cleared too: a refresh
        started while a period is in flight must not let ``finish_period``
        fold the pre-reset delta (old remote knowledge) back into the
        freshly rebuilt kept summary.

        Delta-chain state resets with it: pending removals are pointless
        (the refresh re-ships ground truth) and both generation maps clear,
        so any in-flight delta that arrives after the refresh fails the
        ``base_generation`` check and falls back to a full summary instead
        of silently merging stale rows.
        """
        if self._frontier is not None:
            self._rebuild_suppression()
        self.kept_summary = self.rebuild_own_summary()
        self.merged_brokers = {self.broker_id}
        self.pending = []
        self.delta_summary = None
        self.delta_brokers = set()
        self.contacted = set()
        self.removed_pending = set()
        self.delta_removed = set()
        self.period_acted = False
        self.link_generations_out = {}
        self.link_generations_in = {}

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
        return len(self._frontier) if self._frontier is not None else 0

    def _frontier_remove(self, sid: SubscriptionId) -> None:
        """Drop a frontier member and re-home the ids it covered.

        Strictly local (the incremental rebuild): only ``sid``'s own
        covered set is reconsidered.  Each orphan either re-homes under a
        surviving coverer or promotes into the frontier — entering
        ``kept_summary`` (it must match local events immediately) and
        ``pending`` (remote brokers learn it next period).  Orphans are
        processed in sorted order, so a promoted orphan can deterministically
        become the coverer of its later siblings.
        """
        self._frontier.remove(sid)
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
            subscription = self.store.get(orphan)
            if subscription is None:
                del self._coverer_of[orphan]
                continue
            coverer = self._frontier.find_coverer(subscription)
            if coverer is not None:
                self._coverer_of[orphan] = coverer
                self._covered_by.setdefault(coverer, set()).add(orphan)
                continue
            del self._coverer_of[orphan]
            self._frontier.add(orphan, subscription)
            self.kept_summary.add(subscription, orphan)
            self.pending.append((orphan, subscription))
            if (
                self._delta_prefolded
                and self.delta_summary is not None
                and not self.period_acted
            ):
                # The in-flight delta was built from ``pending`` at
                # ``begin_period`` and has not been sent yet.  Without
                # suppression this id would have been pending then and
                # ridden this very frame — promoting it only into
                # ``pending`` would delay its propagation a full period
                # behind its coverer's removal, leaving a window where no
                # remote summary routes events to this broker at all.
                self.delta_summary.add(subscription, orphan)
                self._period_folded.add(orphan)

    def _rebuild_suppression(self) -> None:
        """Recompute the frontier and cover maps from the store (refresh
        support — unsubscribe churn may have left the frontier larger than
        it needs to be, since adds never evict)."""
        from repro.siena.poset import SidCoveringIndex

        frontier = SidCoveringIndex()
        self._covered_by = {}
        self._coverer_of = {}
        for sid, subscription in sorted(self.store.items()):
            coverer = frontier.find_coverer(subscription)
            if coverer is None:
                frontier.add(sid, subscription)
            else:
                self._coverer_of[sid] = coverer
                self._covered_by.setdefault(coverer, set()).add(sid)
        self._frontier = frontier

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
        from repro.siena.poset import SidCoveringIndex

        visible = {
            sid for sid in self.kept_summary.all_ids() if sid.broker == self.broker_id
        }
        visible |= {sid for sid, _ in self.pending}
        frontier = SidCoveringIndex()
        self._covered_by = {}
        self._coverer_of = {}
        rest: List[Tuple[SubscriptionId, Subscription]] = []
        for sid, subscription in sorted(self.store.items()):
            if sid in visible:
                frontier.add(sid, subscription)
            else:
                rest.append((sid, subscription))
        self._frontier = frontier
        for sid, subscription in rest:
            coverer = frontier.find_coverer(subscription)
            if coverer is not None:
                self._coverer_of[sid] = coverer
                self._covered_by.setdefault(coverer, set()).add(sid)
            else:
                # Snapshot predates suppression (or was taken with it off):
                # promote so the id keeps matching.
                frontier.add(sid, subscription)
                self.kept_summary.add(subscription, sid)
                self.pending.append((sid, subscription))

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

    def match_kept(self, event: Event) -> Set[SubscriptionId]:
        """Match an event against the kept multi-broker summary.

        With ``matcher="compiled"`` this goes through a flat
        :class:`CompiledMatcher` snapshot of the kept summary; the snapshot
        tracks the summary's generation counter, so mutations from
        propagation periods (``merge``), subscriptions (``add``) and
        unsubscriptions (``remove``) transparently trigger a lazy rebuild.
        Both paths return identical id sets (see
        ``tests/summary/test_compiled_differential.py``).
        """
        self.events_examined += 1
        if self.matcher == "compiled":
            matched = self._compiled_matcher().match(event)
            if self.paranoid:
                self._check_match_parity(matched, event)
            return matched
        return self.kept_summary.match(event)

    def match_kept_many(self, events: List[Event]) -> List[Set[SubscriptionId]]:
        """Match a batch of events against the kept summary, in order.

        The batched form of :meth:`match_kept`: with ``matcher="compiled"``
        it goes through :meth:`CompiledMatcher.match_many`, which amortizes
        the staleness check over the batch.  The reference matcher falls
        back to a per-event walk — identical results either way.
        """
        self.events_examined += len(events)
        if self.matcher == "compiled":
            results = self._compiled_matcher().match_many(events)
            if self.paranoid:
                for event, matched in zip(events, results):
                    self._check_match_parity(matched, event)
            return results
        return [self.kept_summary.match(event) for event in events]

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
        self, sids: Set[SubscriptionId], event: Event, publish_id: int = 0
    ) -> Set[SubscriptionId]:
        """Owner-side delivery: exact re-check, then hand to consumers.

        Returns the confirmed ids; the difference is the COARSE false
        positives (or ids unsubscribed since the summary was propagated).
        Duplicate notifications for an already-delivered publish are
        suppressed (at-least-once transport tolerance).

        Under covered-id suppression the candidate set only names frontier
        members (covered ids are in no summary), so each candidate expands
        to the ids it covers before the exact re-check — a covered
        subscription matches a subset of what its coverer matches, so this
        expansion is exactly the candidate set the unsuppressed system
        would have produced, filtered by the same re-check.
        """
        if self._covered_by or self._ghost_covers:
            # Transitive closure: a ghost's dependent can itself have died
            # and become a ghost before the first removal ever propagated.
            expanded = set(sids)
            frontier_sids = list(sids)
            while frontier_sids:
                candidate = frontier_sids.pop()
                for covered in (
                    self._covered_by.get(candidate),
                    self._ghost_covers.get(candidate),
                ):
                    if covered:
                        for dependent in covered:
                            if dependent not in expanded:
                                expanded.add(dependent)
                                frontier_sids.append(dependent)
            sids = expanded
        if publish_id:
            if publish_id in self._delivered_publishes:
                self._delivered_publishes.move_to_end(publish_id)  # LRU touch
                self.duplicates_suppressed += 1
                return set()
            self._remember(self._delivered_publishes, publish_id)
        tracer = self.tracer
        if tracer.enabled:
            with tracer.span(
                "recheck", broker=self.broker_id, trace_id=publish_id,
                candidates=len(sids),
            ) as span:
                confirmed = self.store.recheck(event, sids)
                span.note(
                    confirmed=len(confirmed),
                    false_positives=len(sids) - len(confirmed),
                )
        else:
            confirmed = self.store.recheck(event, sids)
        self.false_positive_notifies += len(sids) - len(confirmed)
        for sid in sorted(confirmed):
            self.deliveries.append((sid, event))
            if self.on_delivery is not None:
                self.on_delivery(self.broker_id, sid, event)
        if confirmed and tracer.enabled:
            tracer.record(
                "delivery", broker=self.broker_id, trace_id=publish_id,
                count=len(confirmed),
            )
        return confirmed

    def __repr__(self) -> str:
        return (
            f"SummaryBroker(id={self.broker_id}, subs={len(self.store)}, "
            f"knows={sorted(self.merged_brokers)})"
        )
