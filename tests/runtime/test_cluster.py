"""LocalCluster orchestration: coordinated periods, quiesce, CLI surfaces."""

import asyncio
import socket

import pytest

from repro.broker.system import SummaryPubSub
from repro.model import Event, parse_subscription, stock_schema
from repro.network import Topology
from repro.network.topology import paper_example_tree
from repro.runtime import cluster as cluster_cli
from repro.runtime.cluster import LocalCluster
from repro.runtime.server import BrokerRuntime, named_topology, parse_peers
from repro.wire.codec import ValueWidth
from repro.wire.messages import NotifyMessage
from repro.workload.stocks import StockWorkload

SCHEMA = stock_schema()


class TestCoordinatedPeriods:
    def test_merged_brokers_match_simulator_per_period(self):
        """After each coordinated period, every live broker knows exactly
        the same set of merged peers as its simulated twin — the knowledge
        wavefront advances in lockstep."""
        topology = paper_example_tree()
        system = SummaryPubSub(topology, SCHEMA, value_width=ValueWidth.F64)
        workload = StockWorkload(seed=17)

        async def body():
            live = LocalCluster(topology, SCHEMA)
            await live.start()
            try:
                observed = []
                for _period in range(3):
                    # Fresh interest every period keeps the deltas
                    # non-empty (empty deltas are never sent, in either
                    # substrate), so the knowledge wavefront keeps moving.
                    for broker_id in sorted(topology.brokers):
                        subscription = workload.subscription()
                        system.subscribe(broker_id, subscription)
                        live.runtimes[broker_id].broker.subscribe(subscription)
                    system.run_propagation_period()
                    await live.run_propagation_period()
                    snapshot = {
                        broker_id: (
                            frozenset(system.brokers[broker_id].merged_brokers),
                            frozenset(runtime.broker.merged_brokers),
                        )
                        for broker_id, runtime in live.runtimes.items()
                    }
                    observed.append(snapshot)
                return observed
            finally:
                await live.stop(drain=False)

        observed = asyncio.run(body())
        for period, snapshot in enumerate(observed, start=1):
            for broker_id, (simulated, live_set) in snapshot.items():
                assert simulated == live_set, (
                    f"period {period}, broker {broker_id}: "
                    f"sim={sorted(simulated)} live={sorted(live_set)}"
                )
        # And the equality is not vacuous: knowledge actually spread
        # beyond the trivial self-knowledge in the very first period
        # (this policy/topology saturates immediately and stays steady).
        first = observed[0]
        assert any(len(first[b][1]) > 1 for b in first), "knowledge never spread"

    def test_quiesce_times_out_when_frames_never_drain(self):
        async def body():
            cluster = LocalCluster(Topology.line(2), SCHEMA)
            await cluster.start()
            try:
                # Forge an imbalance: a frame that was "enqueued" but will
                # never be processed anywhere.
                cluster.runtimes[0].frames_enqueued += 1
                with pytest.raises(asyncio.TimeoutError):
                    await cluster.quiesce(timeout=0.3)
            finally:
                cluster.runtimes[0].frames_enqueued -= 1
                await cluster.stop(drain=False)

        asyncio.run(body())

    def test_dead_peer_frames_count_dropped_not_wedged(self):
        """Frames aimed at a peer nobody answers must be accounted as
        dropped (connection refused -> record_send_failure) so the quiesce
        arithmetic converges instead of waiting forever."""

        async def body():
            runtime = BrokerRuntime(0, Topology.line(2), SCHEMA)
            await runtime.start(0)
            try:
                # A port that was just freed: connects are refused at once.
                probe = socket.socket()
                probe.bind(("127.0.0.1", 0))
                dead_port = probe.getsockname()[1]
                probe.close()
                runtime.set_peers({1: ("127.0.0.1", dead_port)})
                runtime.broker.subscribe(
                    parse_subscription(
                        SCHEMA, "symbol = OTE AND price < 8.70 AND price > 8.30"
                    )
                )
                assert await runtime.period_act() == 1  # summary -> dead peer
                for _ in range(200):
                    await asyncio.sleep(0.01)
                    if runtime.frames_dropped:
                        break
                assert runtime.frames_dropped == 1
                assert runtime.metrics.send_failures == 1
                # The loss balances the ledger: nothing left outstanding.
                assert runtime.frames_enqueued - runtime.frames_dropped == 0
            finally:
                await runtime.shutdown(drain=False)

        asyncio.run(body())

    def test_restarted_peer_link_reconnects(self):
        """EOF on the one-way lane is treated as peer death: the next
        frame reopens the connection instead of writing into the void."""
        topology = Topology.line(2)

        async def body():
            a = BrokerRuntime(0, topology, SCHEMA)
            b = BrokerRuntime(1, topology, SCHEMA)
            port_a, port_b = await a.start(0), await b.start(0)
            addresses = {0: ("127.0.0.1", port_a), 1: ("127.0.0.1", port_b)}
            a.set_peers(addresses)
            b.set_peers(addresses)
            subscription = parse_subscription(
                SCHEMA, "symbol = OTE AND price < 8.70 AND price > 8.30"
            )
            b.broker.subscribe(subscription)
            assert await b.period_act() == 0  # opens the b -> a lane
            b.period_close()
            for _ in range(200):  # a absorbed the summary over the lane
                await asyncio.sleep(0.01)
                if 1 in a.broker.period.brokers:
                    break
            assert 1 in a.broker.period.brokers
            # Broker a restarts on a fresh socket; hand b the new address.
            await a.shutdown(drain=False)
            a2 = BrokerRuntime(0, topology, SCHEMA)
            port_a2 = await a2.start(0)
            # A restarted broker learns its peers again; without this the
            # delta-fallback request (a2 lost b's generation chain) has
            # nowhere to go and the resync never completes.
            a2.set_peers({0: ("127.0.0.1", port_a2), 1: ("127.0.0.1", port_b)})
            b.set_peers({0: ("127.0.0.1", port_a2), 1: ("127.0.0.1", port_b)})
            b._links[0].address = ("127.0.0.1", port_a2)
            # Give the EOF from a's death a moment to land on b's lane.
            await asyncio.sleep(0.05)
            b.broker.subscribe(subscription)
            assert await b.period_act() == 0  # reconnects, not a dead write
            b.period_close()
            for _ in range(200):
                await asyncio.sleep(0.01)
                if 1 in a2.broker.period.brokers:
                    break
            assert 1 in a2.broker.period.brokers
            assert b.frames_dropped == 0
            await b.shutdown(drain=False)
            await a2.shutdown(drain=False)

        asyncio.run(body())

    def test_one_notify_per_session_per_event(self):
        """Three overlapping subscriptions on one session, one event: the
        session gets a single NOTIFY naming all three ids, and still
        records three deliveries."""

        async def body():
            cluster = LocalCluster(Topology.line(2), SCHEMA)
            await cluster.start()
            try:
                subscriber = await cluster.subscriber(0)
                notifies = []
                recv = subscriber._conn.recv

                async def recording_recv():
                    message = await recv()
                    if isinstance(message, NotifyMessage):
                        notifies.append(message)
                    return message

                subscriber._conn.recv = recording_recv
                sids = set()
                for text in (
                    "symbol = OTE",
                    "price > 8.0",
                    "symbol = OTE AND price < 8.70 AND price > 8.30",
                ):
                    sids.add(await subscriber.subscribe(parse_subscription(SCHEMA, text)))
                await cluster.run_propagation_period()

                producer = await cluster.producer(1)
                await producer.publish(Event.of(symbol="OTE", price=8.40))
                await cluster.settle()
                assert [n.matched for n in notifies] == [frozenset(sids)]
                assert sorted(sid for sid, _e in subscriber.deliveries) == sorted(sids)
            finally:
                await cluster.stop(drain=False)

        asyncio.run(body())

    def test_metrics_merge_across_brokers(self):
        async def body():
            cluster = LocalCluster(Topology.line(3), SCHEMA)
            await cluster.start()
            try:
                await cluster.run_propagation_period()
                merged = cluster.metrics()
                per_broker = sum(
                    r.metrics.messages for r in cluster.runtimes.values()
                )
                assert merged.messages == per_broker > 0
            finally:
                await cluster.stop(drain=False)

        asyncio.run(body())


class TestCliSurfaces:
    def test_named_topology_resolution(self):
        assert named_topology("cw24").num_brokers == 24
        assert named_topology("tree13").num_brokers == 13
        assert named_topology("line4").num_brokers == 4
        assert named_topology("star6").num_brokers == 6
        assert named_topology("scalefree8").num_brokers == 8
        with pytest.raises(ValueError, match="unknown topology"):
            named_topology("torus9")

    def test_parse_peers(self):
        assert parse_peers("1=127.0.0.1:7001, 2=10.0.0.5:9000") == {
            1: ("127.0.0.1", 7001),
            2: ("10.0.0.5", 9000),
        }
        with pytest.raises(ValueError, match="bad peer spec"):
            parse_peers("1=nocolon")

    def test_cluster_main_smoke(self, tmp_path, capsys):
        """The repro-cluster entry point end to end, small scale."""
        exit_code = cluster_cli.main(
            [
                "--topology", "line3",
                "--subscriptions", "2",
                "--events", "12",
                "--seed", "5",
                "--paranoid",
                "--snapshot-dir", str(tmp_path),
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "cluster up" in out
        assert "published 12 events" in out
        assert "drained 3 snapshots" in out
        assert sorted(p.name for p in tmp_path.glob("*.snap")) == [
            "broker-0.snap", "broker-1.snap", "broker-2.snap",
        ]
