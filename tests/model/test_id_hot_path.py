"""Routing and delivery never run Python code to hash or compare an id.

Algorithm 3 puts subscription ids through sets, dict lookups and sorts at
every hop: grouping matched ids by owner, the owner's closure lookups, the
NOTIFY id list.  :class:`SubscriptionId` is a tuple value, so all of that
is C.  This gate routes a burst through a ``line3`` simulator whose
residents form covering chains (many deliveries per event) and counts,
under :func:`sys.setprofile`, the Python-level calls into an id's hash,
equality or ordering methods: there must be none.
"""

import random
import sys

from repro.broker import SummaryPubSub
from repro.model import Constraint, Event, Operator, Subscription, stock_schema
from repro.model.ids import SubscriptionId
from repro.network import Topology

DUNDERS = frozenset({"__hash__", "__eq__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__"})
EXCHANGES = ("NYSE", "LSE")
SYMBOLS = ("ABCD", "ABDC", "BACD", "BCDA")


def _residents(broker: int):
    """Price-ceiling ladders per exchange (each rung covers the lower ones)
    and nested symbol prefixes, in seeded order: covering chains whose
    running maxima are the frontier, as on a fan-out load."""
    subs = [
        Subscription([
            Constraint.string("exchange", Operator.EQ, exchange),
            Constraint.arithmetic("price", Operator.LT, 50.0 * rung + broker),
        ])
        for exchange in EXCHANGES for rung in range(1, 17)
    ]
    subs += [
        Subscription([Constraint.string("symbol", Operator.PREFIX, prefix)])
        for prefix in ("A", "AB", "ABC", "B", "BA", "BC")
    ]
    random.Random(broker).shuffle(subs)
    return subs


def _events(count: int):
    return [
        Event.of(
            exchange=EXCHANGES[i % 2], symbol=SYMBOLS[i % len(SYMBOLS)],
            price=float(37 * i % 800), volume=i,
        )
        for i in range(count)
    ]


def test_routing_a_burst_makes_no_python_id_dunder_calls():
    system = SummaryPubSub(Topology.line(3), stock_schema())
    for broker in system.brokers:
        for subscription in _residents(broker):
            system.subscribe(broker, subscription)
    system.run_propagation_period()
    assert system.total_suppressed() > 0
    events = _events(40)
    calls = []

    def profile(frame, event, _arg):
        if (
            event == "call"
            and frame.f_code.co_name in DUNDERS
            and isinstance(frame.f_locals.get("self"), SubscriptionId)
        ):
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        results = [system.publish_batch(0, events), system.publish(2, events[1])]
    finally:
        sys.setprofile(None)
    deliveries = sum(len(result.deliveries) for result in results)
    # The gate means something only if ids really crossed brokers.
    assert deliveries > 3 * len(events)
    assert {owner for r in results for owner in r.matched_brokers} == {0, 1, 2}
    assert calls == []
