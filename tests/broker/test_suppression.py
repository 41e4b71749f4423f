"""Covered-id suppression inside SummaryBroker (the hybrid fold-in).

The prototype this replaced (``repro.ext.hybrid``) had two churn defects:
a whole-store frontier rebuild on every unsubscribe, and a ``suppressed``
counter that drifted when the covering structure evicted members.  The
Hypothesis churn sequence below asserts the counter against *recomputed*
ground truth — every non-frontier store member must be covered by some
frontier member, brute-forced with :func:`subscription_covers` — after
every operation, alongside the paranoid suppression-accounting audit.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.broker.broker import SummaryBroker
from repro.model import Event, parse_subscription, stock_schema
from repro.model.ids import SubscriptionId
from repro.obs.audit import AuditError, SummaryAuditor
from repro.siena.covering import subscription_covers

SCHEMA = stock_schema()

#: A pool with deliberate covering structure: nested price ranges, narrow
#: symbol-qualified variants of them, and an unrelated volume family.
POOL = [
    parse_subscription(SCHEMA, text)
    for text in (
        "price < 20",
        "price < 10",
        "price < 5",
        "price < 10 AND symbol = OTE",
        "price < 5 AND symbol = OTE",
        "price < 8 AND symbol = ABC",
        "volume > 1000",
        "volume > 5000",
        "volume > 5000 AND price < 10",
        "symbol = OTE",
    )
]


def assert_counter_matches_ground_truth(broker: SummaryBroker) -> None:
    """Recompute coverage from scratch and compare with the counter."""
    live = dict(broker.store.items())
    frontier_sids = broker._frontier.sids
    covered_sids = set(live) - frontier_sids
    assert broker.suppressed == len(covered_sids)
    assert broker.frontier_size == len(frontier_sids)
    for sid in covered_sids:
        assert any(
            subscription_covers(broker._frontier.subscription_of(f), live[sid])
            for f in frontier_sids
        ), f"{sid} counted as suppressed but no frontier member covers it"
    # The recorded coverer itself must cover (not merely *some* member).
    for covered, coverer in broker._coverer_of.items():
        assert subscription_covers(
            broker._frontier.subscription_of(coverer), live[covered]
        )


class TestSuppressionChurn:
    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("sub"), st.integers(0, len(POOL) - 1)),
                st.tuples(st.just("unsub"), st.integers(0, 200)),
                st.tuples(st.just("period"), st.just(0)),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_counter_equals_recomputed_ground_truth(self, ops):
        broker = SummaryBroker(0, SCHEMA, suppress_covered=True)
        broker.paranoid = True
        auditor = SummaryAuditor(SCHEMA)
        live = []
        in_period = False
        for op, arg in ops:
            if op == "sub":
                live.append(broker.subscribe(POOL[arg]))
            elif op == "unsub" and live:
                assert broker.unsubscribe(live.pop(arg % len(live)))
            elif op == "period":
                if in_period:
                    broker.finish_period()
                else:
                    broker.begin_period()
                in_period = not in_period
            assert_counter_matches_ground_truth(broker)
        if in_period:
            broker.finish_period()
        assert_counter_matches_ground_truth(broker)
        auditor.assert_clean(broker)

    def test_unsubscribing_coverer_rehomes_only_its_orphans(self):
        broker = SummaryBroker(0, SCHEMA, suppress_covered=True)
        broad = broker.subscribe(parse_subscription(SCHEMA, "price < 20"))
        narrow = broker.subscribe(parse_subscription(SCHEMA, "price < 10"))
        unrelated = broker.subscribe(parse_subscription(SCHEMA, "volume > 5"))
        assert broker.suppressed == 1
        assert broker.unsubscribe(broad)
        # The orphan was promoted to the frontier; the unrelated member
        # never moved.
        assert broker.suppressed == 0
        assert broker._frontier.sids == {narrow, unrelated}
        assert_counter_matches_ground_truth(broker)

    def test_orphan_rehomed_under_surviving_coverer(self):
        broker = SummaryBroker(0, SCHEMA, suppress_covered=True)
        outer = broker.subscribe(parse_subscription(SCHEMA, "price < 20"))
        middle = broker.subscribe(parse_subscription(SCHEMA, "price < 10"))
        inner = broker.subscribe(parse_subscription(SCHEMA, "price < 5"))
        assert broker.suppressed == 2  # middle and inner under outer
        assert broker.unsubscribe(outer)
        # middle promotes; inner re-homes under middle, not the frontier.
        assert broker.suppressed == 1
        assert broker._coverer_of[inner] == middle
        assert_counter_matches_ground_truth(broker)

    def test_covered_ids_still_deliver(self):
        deliveries = []
        broker = SummaryBroker(
            0, SCHEMA, suppress_covered=True,
            on_delivery=lambda b, sids, event: deliveries.extend(sids),
        )
        coverer = broker.subscribe(parse_subscription(SCHEMA, "price < 10"))
        covered = broker.subscribe(parse_subscription(SCHEMA, "price < 5"))
        broker.deliver({coverer}, Event.of(price=3.0))
        assert set(deliveries) == {coverer, covered}

    def test_suppressed_ids_never_pend_for_propagation(self):
        broker = SummaryBroker(0, SCHEMA, suppress_covered=True)
        broker.subscribe(parse_subscription(SCHEMA, "price < 10"))
        covered = broker.subscribe(parse_subscription(SCHEMA, "price < 5"))
        assert covered not in {sid for sid, _ in broker.pending}
        assert covered not in broker.kept_summary.all_ids()


class TestGhostCoverers:
    """Stale-coverer notifications during the churn window.

    Remote summaries keep naming an unsubscribed frontier member until the
    removal block (delta mode) or a refresh (full mode) reaches them; a
    NOTIFY for that dead id must still fan out to the subscriptions it
    covered at removal time, or they silently lose deliveries.  Found by
    the delta/full differential under Hypothesis (two identical subs, then
    an unsubscribe of the propagated one, mid-period)."""

    def test_notify_for_dead_coverer_reaches_covered_sub(self):
        deliveries = []
        broker = SummaryBroker(
            0, SCHEMA, suppress_covered=True,
            on_delivery=lambda b, sids, event: deliveries.extend(sids),
        )
        coverer = broker.subscribe(parse_subscription(SCHEMA, "price < 10"))
        covered = broker.subscribe(parse_subscription(SCHEMA, "price < 10"))
        assert broker.unsubscribe(coverer)
        # A remote broker whose kept summary still holds ``coverer``
        # notifies on it; the ghost entry must route to ``covered``.
        confirmed = broker.deliver({coverer}, Event.of(price=3.0))
        assert confirmed == {covered}
        assert deliveries == [covered]

    def test_ghost_expansion_is_transitive(self):
        broker = SummaryBroker(0, SCHEMA, suppress_covered=True)
        first = broker.subscribe(parse_subscription(SCHEMA, "price < 10"))
        second = broker.subscribe(parse_subscription(SCHEMA, "price < 10"))
        third = broker.subscribe(parse_subscription(SCHEMA, "price < 10"))
        assert broker.unsubscribe(first)   # second promotes, third re-homes
        assert broker.unsubscribe(second)  # third promotes; second is a ghost
        confirmed = broker.deliver({first}, Event.of(price=3.0))
        assert confirmed == {third}

    def test_ghost_of_fully_dead_cover_set_delivers_nothing(self):
        broker = SummaryBroker(0, SCHEMA, suppress_covered=True)
        coverer = broker.subscribe(parse_subscription(SCHEMA, "price < 10"))
        covered = broker.subscribe(parse_subscription(SCHEMA, "price < 10"))
        assert broker.unsubscribe(coverer)
        assert broker.unsubscribe(covered)
        confirmed = broker.deliver({coverer}, Event.of(price=3.0))
        assert confirmed == set()
        assert broker.false_positive_notifies > 0


#: Notifications the oracle test delivers: each event matches a different
#: slice of POOL.
EVENTS = [
    Event.of(price=3.0),
    Event.of(price=7.0, symbol="OTE"),
    Event.of(price=4.0, symbol="ABC", volume=6000),
    Event.of(price=15.0, volume=2000),
    Event.of(symbol="OTE"),
]


class TestDeliveryOracle:
    """``deliver`` (closure masks + one owner-index match) against the
    per-candidate oracle walk, under the churn that makes the walk hard:
    coverer deaths, transitive ghosts and notifications naming ids that
    have since been unsubscribed."""

    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("sub"), st.integers(0, len(POOL) - 1)),
                st.tuples(st.just("unsub"), st.integers(0, 200)),
                st.tuples(
                    st.just("deliver"),
                    st.tuples(
                        st.lists(st.integers(0, 200), min_size=1, max_size=4),
                        st.integers(0, len(EVENTS) - 1),
                    ),
                ),
                st.tuples(st.just("refresh"), st.just(0)),
            ),
            min_size=1,
            max_size=50,
        ),
        suppress=st.booleans(),
    )
    # A coverer dies: one orphan promotes, the other re-homes under it.
    @example(
        ops=[("sub", 0), ("sub", 1), ("sub", 2), ("unsub", 0),
             ("deliver", ([1], 0)), ("deliver", ([0], 0))],
        suppress=True,
    )
    # Two deaths in a row: the notified ghosts reach each other.
    @example(
        ops=[("sub", 0), ("sub", 0), ("sub", 0), ("unsub", 0), ("unsub", 0),
             ("deliver", ([0, 1], 0))],
        suppress=True,
    )
    # A covered id is notified after it was unsubscribed.
    @example(
        ops=[("sub", 0), ("sub", 1), ("unsub", 1), ("deliver", ([0, 1], 0))],
        suppress=True,
    )
    @settings(max_examples=100, deadline=None)
    def test_deliver_equals_oracle_walk(self, ops, suppress):
        handoffs = []
        broker = SummaryBroker(
            0, SCHEMA, suppress_covered=suppress,
            on_delivery=lambda b, sids, event: handoffs.append(list(sids)),
        )
        auditor = SummaryAuditor(SCHEMA)
        minted, live = [], []
        for op, arg in ops:
            if op == "sub":
                sid = broker.subscribe(POOL[arg])
                minted.append(sid)
                live.append(sid)
            elif op == "unsub" and live:
                assert broker.unsubscribe(live.pop(arg % len(live)))
            elif op == "refresh":
                broker.reset_merged_state()
            elif op == "deliver" and minted:
                picks, which = arg
                # Any id ever minted: live frontier members, covered ids,
                # ghosts and plain dead ids.
                sids = {minted[pick % len(minted)] for pick in picks}
                event = EVENTS[which]
                order, false_positives = SummaryAuditor.owner_oracle(
                    broker, sids, event
                )
                before = broker.false_positive_notifies
                del handoffs[:]
                confirmed = broker.deliver(sids, event)
                assert confirmed == set(order)
                assert handoffs == ([order] if order else [])
                assert broker.false_positive_notifies - before == false_positives
            auditor.assert_clean(broker)

    def test_foreign_id_is_rejected(self):
        broker = SummaryBroker(0, SCHEMA, suppress_covered=True)
        own = broker.subscribe(parse_subscription(SCHEMA, "price < 10"))
        foreign = SubscriptionId(broker=1, local_id=0, attr_mask=own.attr_mask)
        with pytest.raises(ValueError):
            broker.deliver({own, foreign}, Event.of(price=3.0))


class TestOwnerAudit:
    def test_corrupted_row_and_closure_masks_are_caught(self):
        broker = SummaryBroker(0, SCHEMA, suppress_covered=True)
        for subscription in POOL:
            broker.subscribe(subscription)
        auditor = SummaryAuditor(SCHEMA)
        auditor.assert_clean(broker)

        line = broker.store.index._tables["price"]
        saved = line.masks[1]
        line.masks[1] ^= 1  # slot 0 joins or leaves one row
        with pytest.raises(AuditError, match="owner-accounting"):
            auditor.assert_clean(broker)
        line.masks[1] = saved
        auditor.assert_clean(broker)

        coverer = next(iter(broker._covered_by))
        broker._closures[coverer] ^= broker.store.index.bit_of(coverer)
        with pytest.raises(AuditError, match="owner-accounting"):
            auditor.assert_clean(broker)

    def test_paranoid_deliver_raises_on_parity_break(self):
        broker = SummaryBroker(0, SCHEMA, suppress_covered=True)
        broker.paranoid = True
        coverer = broker.subscribe(parse_subscription(SCHEMA, "price < 10"))
        covered = broker.subscribe(parse_subscription(SCHEMA, "price < 5"))
        assert broker.deliver({coverer}, Event.of(price=3.0)) == {coverer, covered}
        # A closure that forgot its covered id loses a delivery.
        broker._closures[coverer] = broker.store.index.bit_of(coverer)
        with pytest.raises(AuditError, match="owner-parity"):
            broker.deliver({coverer}, Event.of(price=3.0))
