"""Graceful drain: SIGTERM → flushed queues → atomic snapshot → restart."""

import asyncio
import os
import signal

import pytest

from repro.broker.persistence import snapshot_path
from repro.model import parse_subscription, stock_schema
from repro.network import Topology
from repro.runtime.cluster import LocalCluster
from repro.runtime.server import BrokerRuntime
from repro.workload.stocks import StockWorkload

SCHEMA = stock_schema()
SUB_TEXT = "symbol = OTE AND price < 8.70 AND price > 8.30"


class TestDrainToSnapshot:
    def test_drain_writes_restorable_snapshot_and_cluster_resumes(self, tmp_path):
        """The acceptance scenario: drain a live cluster mid-life, restore
        it from the snapshots, and prove routing resumes for the restored
        subscriptions."""
        topology = Topology.line(4)
        workload = StockWorkload(seed=3)
        subscription = parse_subscription(SCHEMA, SUB_TEXT)

        async def first_life():
            cluster = LocalCluster(
                topology, SCHEMA, snapshot_dir=str(tmp_path), paranoid=True
            )
            await cluster.start()
            subscriber = await cluster.subscriber(3)
            sid = await subscriber.subscribe(subscription)
            await cluster.run_propagation_period()
            producer = await cluster.producer(0)
            # Traffic before the drain: the summaries must already route.
            from repro.model import Event

            await producer.publish(Event.of(symbol="OTE", price=8.50))
            await cluster.settle()
            assert [s for s, _e in subscriber.deliveries] == [sid]
            snapshots = await cluster.stop(drain=True)
            return sid, snapshots

        sid, snapshots = asyncio.run(first_life())
        assert sorted(p.name for p in snapshots) == [
            f"broker-{b}.snap" for b in sorted(topology.brokers)
        ]
        # Atomicity: no temp files left beside the snapshots.
        assert [p.name for p in tmp_path.iterdir() if p.suffix != ".snap"] == []

        async def second_life():
            cluster = LocalCluster(topology, SCHEMA, paranoid=True)
            await cluster.start(restore_from=str(tmp_path))
            # The restored sid is live state on broker 3 and routed state
            # everywhere: a fresh publish at broker 0 must reach it without
            # re-subscribing or re-running a period.
            restored = cluster.runtimes[3].broker
            assert sid in restored.kept_summary.all_ids()
            producer = await cluster.producer(0)
            from repro.model import Event

            await producer.publish(Event.of(symbol="OTE", price=8.44))
            await producer.publish(Event.of(symbol="OTE", price=9.99))
            await cluster.settle()
            # No live session owns the restored sid; the delivery is
            # visible on the cluster's hand-off record.
            delivered = [
                (d_sid, event.get("price"))
                for d_sid, event in cluster.handoffs(cluster.runtimes[3])
            ]
            await cluster.stop(drain=False)
            return delivered

        delivered = asyncio.run(second_life())
        assert delivered == [(sid, 8.44)]

    def test_drain_keeps_an_unshipped_batch_pending(self, tmp_path):
        """A subscription accepted after the last period has shipped
        nowhere, while its broker is already listed in its neighbours'
        Merged_Brokers.  The drain must keep it pending in the snapshot, so
        the restored broker's next act ships it; folding it into the kept
        summary instead would hide it from every other broker's search."""
        from repro.model import Event

        topology = Topology.line(4)
        early = parse_subscription(SCHEMA, "symbol = AAA")
        late = parse_subscription(SCHEMA, "symbol = BBB")

        async def first_life():
            cluster = LocalCluster(
                topology, SCHEMA, snapshot_dir=str(tmp_path), paranoid=True
            )
            await cluster.start()
            subscriber = await cluster.subscriber(3)
            await subscriber.subscribe(early)
            await cluster.run_propagation_period()
            assert 3 in cluster.runtimes[1].broker.merged_brokers
            sid = await subscriber.subscribe(late)
            await cluster.stop(drain=True)
            return sid

        sid = asyncio.run(first_life())

        async def second_life():
            cluster = LocalCluster(topology, SCHEMA, paranoid=True)
            await cluster.start(restore_from=str(tmp_path))
            await cluster.run_propagation_period()
            producer = await cluster.producer(1)
            await producer.publish(Event.of(symbol="BBB"))
            await cluster.settle()
            delivered = [d_sid for d_sid, _e in cluster.handoffs(cluster.runtimes[3])]
            await cluster.stop(drain=False)
            return delivered

        assert asyncio.run(second_life()) == [sid]

    def test_drain_before_the_act_keeps_absorbed_peer_frames(self, tmp_path):
        """The timer-mode interleaving: broker 1 acts and its delta lands
        at broker 0, which drains before its own act.  Broker 0 already
        lists broker 1 in its Merged_Brokers, so the drain must fold the
        absorbed frame into the snapshot: the restored chains restart at
        generation 0 on both ends, nothing re-ships broker 1's batch, and
        BROCLI stops at broker 0."""
        from repro.model import Event

        topology = Topology.line(2)
        early = parse_subscription(SCHEMA, "symbol = AAA")
        late = parse_subscription(SCHEMA, "symbol = BBB")

        async def first_life():
            cluster = LocalCluster(
                topology, SCHEMA, snapshot_dir=str(tmp_path), paranoid=True
            )
            await cluster.start()
            subscriber = await cluster.subscriber(1)
            await subscriber.subscribe(early)
            await cluster.run_propagation_period()
            assert 1 in cluster.runtimes[0].broker.merged_brokers
            sid = await subscriber.subscribe(late)
            # Broker 1's timer fires first; broker 0's has not yet.
            await cluster.runtimes[1].period_act()
            cluster.runtimes[1].period_close()
            await cluster.quiesce()
            assert not cluster.runtimes[0].broker.period.acted
            assert sid in cluster.runtimes[0].broker.period.adds.all_ids()
            await cluster.stop(drain=True)
            return sid

        sid = asyncio.run(first_life())

        async def second_life():
            cluster = LocalCluster(topology, SCHEMA, paranoid=True)
            await cluster.start(restore_from=str(tmp_path))
            await cluster.run_propagation_period()
            producer = await cluster.producer(0)
            await producer.publish(Event.of(symbol="BBB"))
            await cluster.settle()
            delivered = [d_sid for d_sid, _e in cluster.handoffs(cluster.runtimes[1])]
            await cluster.stop(drain=False)
            return delivered

        assert asyncio.run(second_life()) == [sid]

    def test_drain_keeps_an_unshipped_removal(self, tmp_path):
        """The live period is open and unacted between acts, so an
        unsubscribe there lands in the period's removal block.  A drain
        in that window closes the period without acting: the removal must
        stay queued through the snapshot and ship after the restore, or
        broker 0 keeps routing towards the dead id for good."""
        topology = Topology.line(2)
        subscription = parse_subscription(SCHEMA, "symbol = AAA")

        async def first_life():
            cluster = LocalCluster(
                topology, SCHEMA, snapshot_dir=str(tmp_path), paranoid=True
            )
            await cluster.start()
            subscriber = await cluster.subscriber(1)
            sid = await subscriber.subscribe(subscription)
            await cluster.run_propagation_period()
            assert sid in cluster.runtimes[0].broker.kept_summary.all_ids()
            await subscriber.unsubscribe(sid)
            await cluster.stop(drain=True)
            return sid

        sid = asyncio.run(first_life())

        async def second_life():
            cluster = LocalCluster(topology, SCHEMA, paranoid=True)
            await cluster.start(restore_from=str(tmp_path))
            for _period in range(3):
                await cluster.run_propagation_period()
            kept = cluster.runtimes[0].broker.kept_summary.all_ids()
            await cluster.stop(drain=False)
            return kept

        assert sid not in asyncio.run(second_life())

    def test_restore_refuses_stray_and_missing_snapshots(self, tmp_path):
        topology = Topology.line(2)

        async def drain_line3():
            cluster = LocalCluster(
                Topology.line(3), SCHEMA, snapshot_dir=str(tmp_path)
            )
            await cluster.start()
            await cluster.stop(drain=True)

        asyncio.run(drain_line3())

        async def restore_line2():
            cluster = LocalCluster(topology, SCHEMA)
            await cluster.start(restore_from=str(tmp_path))

        with pytest.raises(ValueError, match="half-restore"):
            asyncio.run(restore_line2())

        snapshot_path(tmp_path, 2).unlink()  # stray gone ...
        snapshot_path(tmp_path, 1).unlink()  # ... but now broker 1 is missing
        with pytest.raises(FileNotFoundError, match="broker 1"):
            asyncio.run(restore_line2())

    def test_drain_without_snapshot_dir_returns_none(self):
        async def body():
            runtime = BrokerRuntime(0, Topology.line(1), SCHEMA)
            await runtime.start(0)
            assert await runtime.shutdown(drain=True) is None

        asyncio.run(body())


class TestSignalHandling:
    def test_sigterm_triggers_drain_and_snapshot(self, tmp_path):
        async def body():
            runtime = BrokerRuntime(
                0, Topology.line(1), SCHEMA, snapshot_dir=str(tmp_path)
            )
            await runtime.start(0)
            runtime.install_signal_handlers()
            runtime.broker.subscribe(parse_subscription(SCHEMA, SUB_TEXT))
            await runtime.period_act()
            runtime.period_close()
            os.kill(os.getpid(), signal.SIGTERM)
            await asyncio.wait_for(runtime.terminated.wait(), 10.0)
            return runtime._snapshot_written

        written = asyncio.run(body())
        assert written is not None and written.exists()
        assert written == snapshot_path(tmp_path, 0)

    def test_second_shutdown_waits_for_first(self, tmp_path):
        async def body():
            runtime = BrokerRuntime(
                0, Topology.line(1), SCHEMA, snapshot_dir=str(tmp_path)
            )
            await runtime.start(0)
            first = asyncio.create_task(runtime.shutdown(drain=True))
            second = asyncio.create_task(runtime.shutdown(drain=True))
            paths = await asyncio.gather(first, second)
            assert paths[0] == paths[1] == snapshot_path(tmp_path, 0)

        asyncio.run(body())
