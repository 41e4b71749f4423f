"""Covered-id suppression inside SummaryBroker (the hybrid fold-in).

The prototype this replaced (``repro.ext.hybrid``) had two churn defects:
a whole-store frontier rebuild on every unsubscribe, and a ``suppressed``
counter that drifted when the covering structure evicted members.  The
Hypothesis churn sequence below asserts the counter against *recomputed*
ground truth — every non-frontier store member must be covered by some
frontier member, brute-forced with :func:`subscription_covers` — after
every operation, alongside the paranoid suppression-accounting audit.

The broker finds coverers with one bitset query on its owner index
(:meth:`OwnerIndex.covering_within`); :class:`SidCoveringIndex` below, the
linear frontier scan it replaced, is the oracle of the differential in
:class:`TestCovererQueryDifferential`.  Its example budget is
configurable for CI's high-budget differential job:
``COMPILED_DIFF_EXAMPLES=500 pytest tests/broker/test_suppression.py``
"""

import os
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.broker import broker as broker_module
from repro.broker.broker import SummaryBroker
from repro.broker.persistence import SnapshotCodec
from repro.model import Event, parse_subscription, stock_schema
from repro.model.attributes import AttributeSpec
from repro.model.constraints import Constraint, Operator
from repro.model.ids import IdCodec, SubscriptionId
from repro.model.schema import Schema
from repro.model.subscriptions import Subscription
from repro.model.types import AttributeType
from repro.obs.audit import AuditError, SummaryAuditor
from repro.summary.covering import subscription_covers
from repro.summary.precision import Precision
from repro.wire.codec import WireCodec

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
    frontier_sids = set(broker._closures)
    covered_sids = set(live) - frontier_sids
    assert broker.suppressed == len(covered_sids)
    assert broker.frontier_size == len(frontier_sids)
    for sid in covered_sids:
        assert any(
            subscription_covers(live[f], live[sid]) for f in frontier_sids
        ), f"{sid} counted as suppressed but no frontier member covers it"
    # The recorded coverer itself must cover (not merely *some* member).
    for covered, coverer in broker._coverer_of.items():
        assert subscription_covers(live[coverer], live[covered])


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
                    broker.act_period(None)
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
        assert set(broker._closures) == {narrow, unrelated}
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


class TestSuppressionAudit:
    def test_corrupted_frontier_mask_and_coverer_are_caught(self):
        broker = SummaryBroker(0, SCHEMA, suppress_covered=True)
        for subscription in POOL:
            broker.subscribe(subscription)
        auditor = SummaryAuditor(SCHEMA)
        auditor.assert_clean(broker)

        member = next(iter(broker._closures))
        broker._frontier ^= broker.store.index.bit_of(member)
        with pytest.raises(AuditError, match="frontier mask"):
            auditor.assert_clean(broker)
        broker._frontier ^= broker.store.index.bit_of(member)
        auditor.assert_clean(broker)

        # File a covered id under a frontier member that does not cover it.
        covered, coverer = next(iter(broker._coverer_of.items()))
        stranger = next(
            sid for sid in broker._closures
            if not subscription_covers(
                broker.store.get(sid), broker.store.get(covered)
            )
        )
        bit = broker.store.index.bit_of(covered)
        broker._coverer_of[covered] = stranger
        broker._covered_by[coverer].discard(covered)
        broker._covered_by.setdefault(stranger, set()).add(covered)
        broker._closures[coverer] &= ~bit
        broker._closures[stranger] |= bit
        with pytest.raises(AuditError, match="does not cover it"):
            auditor.assert_clean(broker)


# -- the coverer query against the linear frontier scan ------------------------------


class SidCoveringIndex:
    """A covering frontier keyed by subscription id, scanned linearly.

    Members are grouped by their attribute signature, since a member can
    only cover a subscription constraining all of its attributes; groups
    and members are scanned in insertion order, and the first member that
    covers wins."""

    def __init__(self) -> None:
        self._groups: Dict[frozenset, List[Tuple[SubscriptionId, Subscription]]] = {}

    def add(self, sid: SubscriptionId, subscription: Subscription) -> None:
        self._groups.setdefault(subscription.attribute_names, []).append(
            (sid, subscription)
        )

    def find_coverer(self, subscription: Subscription) -> Optional[SubscriptionId]:
        names = subscription.attribute_names
        for signature, group in self._groups.items():
            if signature <= names:
                for sid, member in group:
                    if subscription_covers(member, subscription):
                        return sid
        return None


class LinearScanBroker(SummaryBroker):
    """A broker whose frontier lookups go through :class:`SidCoveringIndex`
    over its current frontier members, in the order they joined."""

    def _coverer_for(self, sid, subscription):
        oracle = SidCoveringIndex()
        for member in self._closures:
            oracle.add(member, self.store.get(member))
        return oracle.find_coverer(subscription)


DIFF_EXAMPLES = int(os.environ.get("COMPILED_DIFF_EXAMPLES", "100"))

#: A small schema whose operand pools make covering common: bounds land
#: on each other open and closed, ``!=`` splits lines, and string
#: operators nest (prefixes of literals, globs over prefixes).
DIFF_SCHEMA = Schema([
    AttributeSpec("f", AttributeType.FLOAT),
    AttributeSpec("i", AttributeType.INTEGER),
    AttributeSpec("s", AttributeType.STRING),
    AttributeSpec("t", AttributeType.STRING),
])
_FLOATS = [-1.0, 0.0, 0.5, 1.0, 2.5]
_INTS = [-2, -1, 0, 1, 2]
_WORDS = ["", "a", "b", "ab", "ba", "aab"]
_GLOBS = ["a*", "*b", "a*b", "*a*", "ab", "*"]
_ARITH_OPS = [
    Operator.EQ, Operator.NE, Operator.LT, Operator.LE, Operator.GT, Operator.GE
]
_STRING_OPS = [
    Operator.EQ, Operator.NE, Operator.PREFIX, Operator.SUFFIX,
    Operator.CONTAINS, Operator.MATCHES,
]


def _constraints():
    arithmetic = st.one_of(
        st.builds(
            lambda op, v: Constraint.arithmetic("f", op, v),
            st.sampled_from(_ARITH_OPS),
            st.sampled_from(_FLOATS),
        ),
        st.builds(
            lambda op, v: Constraint.arithmetic("i", op, v, AttributeType.INTEGER),
            st.sampled_from(_ARITH_OPS),
            st.sampled_from(_INTS),
        ),
    )
    string = st.builds(
        lambda name, op, word, glob: Constraint.string(
            name, op, glob if op is Operator.MATCHES else word
        ),
        st.sampled_from(["s", "t"]),
        st.sampled_from(_STRING_OPS),
        st.sampled_from(_WORDS),
        st.sampled_from(_GLOBS),
    )
    return st.one_of(arithmetic, string)


SUBSCRIPTIONS = st.lists(_constraints(), min_size=1, max_size=3).map(Subscription)
DIFF_EVENTS = st.fixed_dictionaries({}, optional={
    "f": st.sampled_from(_FLOATS + [-3.0, 0.25, 0.75, 1.5, 9.0]),
    "i": st.sampled_from(list(range(-4, 5))),
    "s": st.sampled_from(_WORDS + ["bb", "abb"]),
    "t": st.sampled_from(_WORDS),
}).map(lambda values: Event.of(**values))
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("sub"), SUBSCRIPTIONS),
        st.tuples(st.just("unsub"), st.integers(0, 100)),
        st.tuples(st.just("period"), st.none()),
        st.tuples(st.just("refresh"), st.none()),
        st.tuples(st.just("restore"), st.none()),
        st.tuples(st.just("deliver"), DIFF_EVENTS),
    ),
    min_size=1,
    max_size=40,
)


def _sub(text: str) -> Tuple[str, Subscription]:
    return ("sub", parse_subscription(DIFF_SCHEMA, text))


def _subs(*texts: str) -> List[Tuple[str, object]]:
    """Subscribe each text and deliver one event; then drop the first
    subscription, restore a snapshot and refresh, so the rest are looked
    up again against what is left."""
    return [_sub(text) for text in texts] + [
        ("deliver", Event.of(f=0.5, i=1, s="ab", t="a")),
        ("unsub", 0), ("restore", None), ("refresh", None),
    ]


_WIRE = WireCodec(
    DIFF_SCHEMA,
    IdCodec(num_brokers=1, max_subscriptions=1 << 12, num_attributes=len(DIFF_SCHEMA)),
)


def _restored(broker: SummaryBroker) -> SummaryBroker:
    """A fresh broker of the same class restored from ``broker``'s snapshot."""
    codec = SnapshotCodec(_WIRE)
    fresh = type(broker)(0, DIFF_SCHEMA, broker.precision, suppress_covered=True)
    codec.restore_broker(codec.encode_broker(broker), fresh)
    return fresh


def _notified(broker: SummaryBroker, event: Event) -> set:
    """What an owner is notified of: its summarized frontier members the
    kept summary matches, plus its pending ones that match (as they will
    once propagated)."""
    return broker.match_kept_many([event])[0] | {
        sid for sid, subscription in broker.pending if subscription.matches(event)
    }


class TestCovererQueryDifferential:
    """The owner-index coverer query against the linear frontier scan.

    Two brokers run the same operations, one finding coverers with the
    query and one with :class:`SidCoveringIndex`.  The two may record
    different coverers for an id covered twice (slot order against
    insertion order), but the frontier is the same set either way: an id
    joins it exactly when no member covers it."""

    @given(ops=OPS, precision=st.sampled_from([Precision.EXACT, Precision.COARSE]))
    # Open and closed bounds meeting at one value, both ways round.
    @example(ops=_subs("f <= 1", "f < 1", "f >= 1", "f > 1", "f = 1"),
             precision=Precision.EXACT)
    @example(ops=_subs("f < 1", "f <= 1", "f > 1", "f >= 1", "f = 1"),
             precision=Precision.COARSE)
    # Infinite bounds: f < 0.5 under f < 2.5, f > 1 under f > 0.
    @example(ops=_subs("f < 2.5", "f < 0.5", "f > 0", "f > 1"),
             precision=Precision.EXACT)
    # An open interval between adjacent floats holds no float to probe.
    @example(ops=_subs("f > 1 AND f < 1.0000000000000002",
                       "f > 1 AND f < 1.0000000000000002", "f >= 1"),
             precision=Precision.EXACT)
    # A two-interval (!=) member and a two-interval subscription.
    @example(ops=_subs("f != 1", "f < 0.5", "f != 1", "f > 2.5", "f = 1"),
             precision=Precision.COARSE)
    # An integer attribute, bounds meeting and nesting.
    @example(ops=_subs("i >= 0", "i > 0", "i = 1", "i != 1", "i < 2 AND i > -2"),
             precision=Precision.EXACT)
    # Prefix, suffix, contains and glob coverers of prefix and literal
    # subscriptions.
    @example(ops=_subs("s >* a", "s >* ab", "s = ab", "s *< b", "s = aab",
                       "s * a", "s >* aa", "s ~ a*b", "s = ab AND t = a"),
             precision=Precision.EXACT)
    @example(ops=_subs("s ~ *a*", "s ~ a*", "s >* ab", "s = ba", "s != b",
                       "s = a"),
             precision=Precision.COARSE)
    # A contradictory string conjunction, under and over a member.
    @example(ops=_subs("s = a AND s = b", "s >* a", "s = a AND s >* b",
                       "s = ab AND s *< b"),
             precision=Precision.EXACT)
    # A member constraining an attribute the new subscription lacks.
    @example(ops=_subs("f < 2.5 AND i > 0", "f < 0.5", "f < 0.5 AND i > 1"),
             precision=Precision.COARSE)
    @settings(
        max_examples=DIFF_EXAMPLES,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_query_equals_linear_scan(self, ops, precision):
        query = SummaryBroker(0, DIFF_SCHEMA, precision, suppress_covered=True)
        scan = LinearScanBroker(0, DIFF_SCHEMA, precision, suppress_covered=True)
        auditor = SummaryAuditor(DIFF_SCHEMA)
        live: List[SubscriptionId] = []
        for op, arg in ops:
            if op == "sub":
                sid = query.subscribe(arg)
                assert scan.subscribe(arg) == sid
                live.append(sid)
            elif op == "unsub" and live:
                sid = live.pop(arg % len(live))
                assert query.unsubscribe(sid) and scan.unsubscribe(sid)
            elif op == "period":
                for broker in (query, scan):
                    broker.begin_period()
                    broker.act_period(None)
                    broker.finish_period()
            elif op == "refresh":
                query.reset_merged_state()
                scan.reset_merged_state()
            elif op == "restore":
                query, scan = _restored(query), _restored(scan)
            elif op == "deliver":
                truth = {
                    sid for sid, subscription in query.store.items()
                    if subscription.matches(arg)
                }
                assert query.deliver(_notified(query, arg), arg) == truth
                assert scan.deliver(_notified(scan, arg), arg) == truth
            assert set(query._closures) == set(scan._closures)
            assert query.suppressed == scan.suppressed
            assert query.frontier_size == scan.frontier_size
            for broker in (query, scan):
                assert_counter_matches_ground_truth(broker)
                auditor.assert_clean(broker)


# -- coverer checks per subscribe, without a clock -----------------------------------

#: Ten pairwise-incomparable three-attribute signatures: ``symbol`` and
#: two of these.
_SIDES = ("exchange", "price", "volume", "high", "low")
_SIGNATURES = [(a, b) for i, a in enumerate(_SIDES) for b in _SIDES[i + 1:]]


def _keyed(index: int, step: int, family: Operator = Operator.EQ) -> Subscription:
    """The ``index``-th subscription: its own ``symbol`` key (a literal, or
    with ``family`` a prefix or suffix of it) and the side constraints of
    signature ``index mod 10`` at grid ``step``."""
    constraints = [Constraint.string("symbol", family, f"K{index:05d}")]
    for name in _SIGNATURES[index % len(_SIGNATURES)]:
        if name == "exchange":
            constraints.append(Constraint.string("exchange", Operator.EQ, "NYSE"))
        elif name == "volume":
            constraints.append(Constraint.arithmetic(
                "volume", Operator.GT, step * 1000, AttributeType.INTEGER
            ))
        elif name == "low":
            constraints.append(Constraint.arithmetic("low", Operator.GT, step * 10.0))
        else:
            constraints.append(Constraint.arithmetic(name, Operator.LT, 1000.0 - step))
    return Subscription(constraints)


class TestCovererChecksPerSubscribe:
    """Frontier members examined per subscribe stay flat as sigma grows:
    a linear frontier scan checks about sigma/20 of them on this
    population, the query only the members that can cover."""

    @pytest.mark.parametrize("sigma, family", [
        (1000, Operator.EQ),
        (5000, Operator.EQ),
        # A prefix or suffix region probes the string its pieces spell.
        (1000, Operator.PREFIX),
        (1000, Operator.SUFFIX),
    ])
    def test_checks_per_subscribe_stay_constant(self, sigma, family, monkeypatch):
        calls = []
        real = broker_module.subscription_covers

        def counting(general, specific):
            calls.append(1)
            return real(general, specific)

        monkeypatch.setattr(broker_module, "subscription_covers", counting)
        broker = SummaryBroker(0, SCHEMA, suppress_covered=True)
        most = 0
        for index in range(sigma):
            del calls[:]
            broker.subscribe(_keyed(index, index % 16, family))
            most = max(most, len(calls))
        assert broker.frontier_size == sigma
        # Narrower copies of a tenth of them: each one is covered, and
        # only its own coverer is checked.
        for index in range(0, sigma, 10):
            del calls[:]
            broker.subscribe(_keyed(index, index % 16 + 1, family))
            most = max(most, len(calls))
        assert broker.suppressed == sigma // 10
        assert most <= 2
