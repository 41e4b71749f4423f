"""Algorithm-2 delta chains survive frame loss: after the loss stops, a
couple of clean periods restore exact delivery.

BROCLI (Algorithm 3) skips every broker a kept summary lists in
``Merged_Brokers``, so a broker must never claim another without holding
its ids.  A lost SUMMARY_DELTA breaks the link's generation chain; the
receiver rejects the next delta and asks for a resync, and the reply has
to carry *everything* the link has carried, not just the current period's
adds.  A lost resync reply must keep the chain broken until a full
summary lands.

Two deterministic schedules pin one loss each; the Hypothesis property
drops and duplicates frames at random on the topologies where every
resync exchange completes before its receiver acts (``line4``, whose two
equal-degree hubs send to each other, is left out: a reply can land
after the hub acted, which no later frame then carries).

Budget: ``COMPILED_DIFF_EXAMPLES=500 pytest tests/broker/test_lossy_resync.py``.
"""

import os

from hypothesis import given, settings, strategies as st

from repro.broker.system import SummaryPubSub
from repro.model import Event, parse_subscription, stock_schema
from repro.network import LossyNetwork, Network, Topology
from repro.wire.messages import SummaryDeltaMessage, SummaryMessage

SCHEMA = stock_schema()


class DropKinds(Network):
    """A network that drops every frame whose type is in :attr:`drop`."""

    drop: tuple = ()

    def send(self, src, dst, message):
        if not isinstance(message, self.drop):
            super().send(src, dst, message)


def delivered(system, broker_id, event):
    return {
        (d.broker, d.sid) for d in system.publish(broker_id, event).deliveries
    }


def drop_kinds_system(n):
    return SummaryPubSub(
        Topology.line(n), SCHEMA, network_cls=DropKinds, suppress_covered=False
    )


def period(system, drop=()):
    system.network.drop = drop
    system.run_propagation_period()
    system.network.drop = ()


class TestDeterministicLoss:
    def test_lost_delta_resync_carries_earlier_ids(self):
        """Broker 2's second delta is lost; the resync its third delta
        triggers must hand the hub the lost ``price > 100`` too, or the hub
        claims broker 2 without it and the event is never routed there."""
        for n in (2, 3):
            system = drop_kinds_system(n)
            leaf = n - 1
            system.subscribe(leaf, parse_subscription(SCHEMA, "price < 5"))
            period(system)
            system.subscribe(leaf, parse_subscription(SCHEMA, "price > 100"))
            period(system, drop=(object,))
            system.subscribe(leaf, parse_subscription(SCHEMA, "price > 200"))
            period(system)
            period(system)
            event = Event.of(price=150.0)
            truth = system.ground_truth_matches(event)
            assert len(truth) == 1
            assert delivered(system, 0, event) == truth

    def test_lost_resync_reply_keeps_the_chain_broken(self):
        """Period 1 loses every delta; period 2 loses every SUMMARY, which
        is the resync reply.  The sender restarted its chain when it sent
        that reply, so the hub must refuse the sender's next delta until a
        full summary lands, or it claims broker 2 without ``price < 5``."""
        system = drop_kinds_system(3)
        system.subscribe(2, parse_subscription(SCHEMA, "price < 5"))
        period(system, drop=(SummaryDeltaMessage,))
        period(system, drop=(SummaryMessage,))
        period(system)
        period(system)
        event = Event.of(price=1.0)
        truth = system.ground_truth_matches(event)
        assert len(truth) == 1
        assert delivered(system, 0, event) == truth


POOL = [
    parse_subscription(SCHEMA, text)
    for text in (
        "price < 20",
        "price < 10",
        "price < 5",
        "price < 10 AND symbol = OTE",
        "volume > 1000",
        "volume > 5000",
        "symbol = OTE",
        "price > 2 AND price < 12",
    )
]

PROBES = [
    Event.of(price=3.0),
    Event.of(price=7.0, symbol="OTE"),
    Event.of(price=15.0),
    Event.of(volume=6000),
    Event.of(price=11.0, volume=1500),
]

TOPOLOGIES = {
    "line2": lambda: Topology.line(2),
    "line3": lambda: Topology.line(3),
    "star4": lambda: Topology.star(4),
    "tree2x2": lambda: Topology.balanced_tree(2, 2),
}

period_ops = st.lists(
    st.one_of(
        st.tuples(st.just("sub"), st.integers(0, 400), st.integers(0, len(POOL) - 1)),
        st.tuples(st.just("unsub"), st.integers(0, 400), st.just(0)),
    ),
    max_size=6,
)

lossy_periods = st.lists(
    st.tuples(
        period_ops,
        st.sampled_from([0.0, 0.3, 0.6, 1.0]),
        st.sampled_from([0.0, 0.3]),
    ),
    min_size=2,
    max_size=6,
)

EXAMPLES = int(os.environ.get("COMPILED_DIFF_EXAMPLES", "40"))


@given(
    topology=st.sampled_from(sorted(TOPOLOGIES)),
    suppress=st.booleans(),
    periods=lossy_periods,
    seed=st.integers(0, 2**16),
)
@settings(max_examples=EXAMPLES, deadline=None)
def test_clean_periods_after_loss_restore_exact_delivery(
    topology, suppress, periods, seed
):
    system = SummaryPubSub(
        TOPOLOGIES[topology](), SCHEMA,
        network_cls=LossyNetwork, network_options={"seed": seed},
        suppress_covered=suppress,
    )
    network = system.network
    brokers = sorted(system.topology.brokers)
    live = []
    for ops, drop, duplicate in periods:
        for op, arg, pool_index in ops:
            if op == "sub":
                broker_id = brokers[arg % len(brokers)]
                live.append((broker_id, system.subscribe(broker_id, POOL[pool_index])))
            elif live:
                broker_id, sid = live.pop(arg % len(live))
                assert system.unsubscribe(broker_id, sid)
        network.drop_probability = drop
        network.duplicate_probability = duplicate
        system.run_propagation_period()
    network.drop_probability = network.duplicate_probability = 0.0
    system.run_propagation_period()
    system.run_propagation_period()
    for broker_id in brokers:
        for event in PROBES:
            assert delivered(system, broker_id, event) == (
                system.ground_truth_matches(event)
            ), (topology, broker_id, event)
