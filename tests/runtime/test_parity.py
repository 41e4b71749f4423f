"""The headline artifact: live TCP runtime == simulator, delivery for delivery.

Both substrates run the *same* engine code (EventRouter, shared period
target policy, MessageCodec bytes).  This harness drives an identical
workload through each and asserts the per-consumer delivery sets are
equal — zero missing, zero duplicated — with paranoid audits enabled.
"""

import asyncio

import pytest

from repro.broker.system import SummaryPubSub
from repro.network import Topology
from repro.network.backbone import cable_wireless_24
from repro.network.topology import paper_example_tree
from repro.runtime.cluster import LocalCluster
from repro.wire.codec import ValueWidth
from repro.workload.stocks import StockWorkload


def build_workload(topology: Topology, *, seed: int, subs_per_broker: int, events: int):
    """One deterministic script both substrates replay verbatim."""
    workload = StockWorkload(seed=seed)
    subscriptions = [
        (broker, workload.subscription())
        for broker in sorted(topology.brokers)
        for _ in range(subs_per_broker)
    ]
    brokers = sorted(topology.brokers)
    ticks = [
        (brokers[i % len(brokers)], workload.tick()) for i in range(events)
    ]
    return workload.schema, subscriptions, ticks


def simulator_deliveries(topology, schema, subscriptions, ticks):
    """(broker, sid, event_index) triples from the simulated overlay."""
    system = SummaryPubSub(
        topology, schema, value_width=ValueWidth.F64, paranoid=True
    )
    for broker, subscription in subscriptions:
        system.subscribe(broker, subscription)
    system.run_propagation_period()
    delivered = set()
    for index, (broker, event) in enumerate(ticks):
        result = system.publish(broker, event)
        for delivery in result.deliveries:
            key = (delivery.broker, delivery.sid, index)
            assert key not in delivered, f"simulator duplicated {key}"
            delivered.add(key)
    return delivered


def batched_simulator_deliveries(topology, schema, subscriptions, ticks):
    """Like :func:`simulator_deliveries` but bursting via ``publish_batch``
    (the router entry point the live dispatch loop uses)."""
    system = SummaryPubSub(
        topology, schema, value_width=ValueWidth.F64, paranoid=True
    )
    for broker, subscription in subscriptions:
        system.subscribe(broker, subscription)
    system.run_propagation_period()
    # Group consecutive same-broker ticks into bursts, preserving order —
    # exactly what a producer's publish_many does to the frame stream.
    bursts = []
    for index, (broker, event) in enumerate(ticks):
        if bursts and bursts[-1][0] == broker:
            bursts[-1][1].append((index, event))
        else:
            bursts.append((broker, [(index, event)]))
    delivered = set()
    for broker, indexed in bursts:
        result = system.publish_batch(broker, [event for _i, event in indexed])
        position = {id(event): index for index, event in indexed}
        for delivery in result.deliveries:
            key = (delivery.broker, delivery.sid, position[id(delivery.event)])
            assert key not in delivered, f"batched simulator duplicated {key}"
            delivered.add(key)
    return delivered


def live_deliveries(topology, schema, subscriptions, ticks, *, chunk=None):
    """The same triples, but over real TCP brokers.

    With ``chunk`` set, each producer publishes through ``publish_many``
    bursts of that size — one coalesced client write per burst, exercising
    the runtime's batched dispatch + ``match_many`` hot path end to end.
    """

    async def body():
        cluster = LocalCluster(topology, schema, paranoid=True)
        await cluster.start()
        try:
            subscriber_of = {}
            for broker in sorted(topology.brokers):
                subscriber_of[broker] = await cluster.subscriber(broker)
            sid_broker = {}
            for broker, subscription in subscriptions:
                sid = await subscriber_of[broker].subscribe(subscription)
                sid_broker[sid] = broker
            await cluster.run_propagation_period()
            producer_of = {}
            for broker in sorted(topology.brokers):
                producer_of[broker] = await cluster.producer(broker)
            events = [event for _broker, event in ticks]
            if chunk is None:
                for broker, event in ticks:
                    await producer_of[broker].publish(event)
            else:
                pending = {broker: [] for broker in producer_of}
                for broker, event in ticks:
                    pending[broker].append(event)
                    if len(pending[broker]) >= chunk:
                        await producer_of[broker].publish_many(pending[broker])
                        pending[broker] = []
                for broker, rest in pending.items():
                    if rest:
                        await producer_of[broker].publish_many(rest)
            await cluster.settle()
            delivered = set()
            for broker, subscriber in subscriber_of.items():
                for sid, event in subscriber.deliveries:
                    key = (broker, sid, events.index(event))
                    assert key not in delivered, f"live runtime duplicated {key}"
                    assert sid_broker[sid] == broker, "NOTIFY crossed sessions"
                    delivered.add(key)
            return delivered
        finally:
            await cluster.stop(drain=False)

    return asyncio.run(body())


def assert_parity(topology, *, seed, subs_per_broker, events):
    schema, subscriptions, ticks = build_workload(
        topology, seed=seed, subs_per_broker=subs_per_broker, events=events
    )
    simulated = simulator_deliveries(topology, schema, subscriptions, ticks)
    live = live_deliveries(topology, schema, subscriptions, ticks)
    missing = simulated - live
    extra = live - simulated
    assert not missing and not extra, (
        f"delivery sets diverged: {len(missing)} missing from live, "
        f"{len(extra)} extra in live\nmissing={sorted(missing)[:5]}\n"
        f"extra={sorted(extra)[:5]}"
    )
    assert simulated, "vacuous parity: the workload matched nothing"


class TestSimulatorParity:
    def test_paper_tree_parity(self):
        assert_parity(
            paper_example_tree(), seed=11, subs_per_broker=3, events=40
        )

    def test_line_parity_distinct_seed(self):
        assert_parity(Topology.line(5), seed=23, subs_per_broker=4, events=30)

    @pytest.mark.slow
    def test_cable_wireless_24_parity(self):
        """The paper's 24-broker backbone, full scale."""
        assert_parity(
            cable_wireless_24(), seed=7, subs_per_broker=3, events=60
        )


class TestBatchedParity:
    """The batched hot path against the sequential oracle, cross-substrate.

    Three runs of one workload — sequential simulator (the ground truth),
    batched simulator (``publish_batch``), and the live runtime fed
    ``publish_many`` bursts — must agree delivery for delivery, with
    paranoid audits on throughout.
    """

    def assert_batched_parity(self, topology, *, seed, subs_per_broker,
                              events, chunk):
        schema, subscriptions, ticks = build_workload(
            topology, seed=seed, subs_per_broker=subs_per_broker, events=events
        )
        oracle = simulator_deliveries(topology, schema, subscriptions, ticks)
        batched = batched_simulator_deliveries(
            topology, schema, subscriptions, ticks
        )
        assert batched == oracle, "publish_batch diverged from publish"
        live = live_deliveries(
            topology, schema, subscriptions, ticks, chunk=chunk
        )
        missing = oracle - live
        extra = live - oracle
        assert not missing and not extra, (
            f"batched live runtime diverged: {len(missing)} missing, "
            f"{len(extra)} extra\nmissing={sorted(missing)[:5]}\n"
            f"extra={sorted(extra)[:5]}"
        )
        assert oracle, "vacuous parity: the workload matched nothing"

    def test_paper_tree_batched_parity(self):
        self.assert_batched_parity(
            paper_example_tree(), seed=11, subs_per_broker=3, events=40,
            chunk=8,
        )

    def test_line_batched_parity_chunk_exceeds_batch_frames(self):
        """Client bursts wider than one dispatch batch still agree."""
        self.assert_batched_parity(
            Topology.line(5), seed=23, subs_per_broker=4, events=30, chunk=16
        )

    @pytest.mark.slow
    def test_cable_wireless_24_batched_parity(self):
        """The paper's 24-broker backbone fed ``publish_many`` bursts."""
        self.assert_batched_parity(
            cable_wireless_24(), seed=7, subs_per_broker=3, events=60,
            chunk=8,
        )


def timer_mode_churn(topology, *, seed, rounds, events, period=0.03):
    """Delivered and brute-force ``(sid, event_index)`` sets of a cluster
    whose brokers run uncoordinated ``period_interval`` timers while every
    broker takes 4 subscribes and 3 unsubscribes per round."""
    workload = StockWorkload(seed=seed)

    async def body():
        cluster = LocalCluster(
            topology, workload.schema, period_interval=period, paranoid=True
        )
        await cluster.start()
        try:
            brokers = sorted(topology.brokers)
            subscriber_of = {b: await cluster.subscriber(b) for b in brokers}
            live = {b: [] for b in brokers}
            subscription_of = {}
            for _round in range(rounds):
                for broker in brokers:
                    for _ in range(4):
                        subscription = workload.subscription()
                        sid = await subscriber_of[broker].subscribe(subscription)
                        live[broker].append(sid)
                        subscription_of[sid] = subscription
                    for pick in (0, 1, 2):
                        sid = live[broker].pop(pick % len(live[broker]))
                        await subscriber_of[broker].unsubscribe(sid)
                        del subscription_of[sid]
                await asyncio.sleep(period)
            # Knowledge spreads one hop per tick: let every timer run a
            # few periods past the last operation before publishing.
            await asyncio.sleep(period * (len(brokers) + 4))
            producer_of = {b: await cluster.producer(b) for b in brokers}
            ticks = [workload.tick() for _ in range(events)]
            for index, event in enumerate(ticks):
                await producer_of[brokers[index % len(brokers)]].publish(event)
            await cluster.settle()
            delivered = set()
            for subscriber in subscriber_of.values():
                for sid, event in subscriber.deliveries:
                    key = (sid, ticks.index(event))
                    assert key not in delivered, f"duplicated {key}"
                    delivered.add(key)
            expected = {
                (sid, index)
                for index, event in enumerate(ticks)
                for sid, subscription in subscription_of.items()
                if subscription.matches(event)
            }
            return delivered, expected
        finally:
            await cluster.stop(drain=False)

    return asyncio.run(body())


class TestTimerModeChurn:
    """Standalone brokers on ``period_interval`` timers, under churn, deliver
    exactly the brute-force set.  Equal-degree neighbours race here: a
    peer's frame can land before a broker's own act, and the act must
    still ship its folded pending batch."""

    @pytest.mark.parametrize("brokers", [2, 4])
    def test_timer_mode_churn_delivers_exactly(self, brokers):
        delivered, expected = timer_mode_churn(
            Topology.line(brokers), seed=brokers, rounds=6, events=60
        )
        missing, extra = expected - delivered, delivered - expected
        assert not missing and not extra, (
            f"{len(missing)} missing and {len(extra)} extra of "
            f"{len(expected)}\nmissing={sorted(missing)[:5]}"
        )
        assert expected, "vacuous: the workload matched nothing"
