"""Broker snapshots and whole-system crash recovery."""

import random

import pytest

from repro.broker.persistence import (
    SNAPSHOT_MAGIC,
    SnapshotCodec,
    load_system,
    save_broker,
    save_system,
    snapshot_path,
    write_snapshot_atomic,
)
from repro.broker.system import SummaryPubSub
from repro.model import parse_subscription
from repro.network import Topology, cable_wireless_24
from repro.wire.codec import ByteWriter, CodecError
from repro.workload import WorkloadConfig, WorkloadGenerator


def loaded_system(topology, sigma=5, seed=61):
    generator = WorkloadGenerator(WorkloadConfig(subsumption=0.5), seed=seed)
    system = SummaryPubSub(topology, generator.schema)
    subs = []
    for broker_id in topology.brokers:
        for subscription in generator.subscriptions(sigma):
            system.subscribe(broker_id, subscription)
            subs.append(subscription)
    system.run_propagation_period()
    return generator, system, subs


class TestBrokerSnapshot:
    def test_roundtrip_preserves_everything(self):
        topology = Topology.line(4)
        generator, system, _ = loaded_system(topology)
        # Leave one subscription pending (post-period) to cover that path.
        extra = generator.subscription()
        system.subscribe(2, extra)

        codec = SnapshotCodec(system.wire)
        original = system.brokers[2]
        data = codec.encode_broker(original)

        fresh_system = SummaryPubSub(topology, generator.schema)
        restored = fresh_system.brokers[2]
        codec.restore_broker(data, restored)

        assert restored.store.ids() == original.store.ids()
        assert restored.merged_brokers == original.merged_brokers
        assert [sid for sid, _s in restored.pending] == [
            sid for sid, _s in original.pending
        ]
        assert (
            restored.kept_summary.all_ids() == original.kept_summary.all_ids()
        )
        assert restored.store.next_local_id >= original.store.next_local_id

    def test_watermark_survives_trailing_unsubscribe(self):
        topology = Topology.line(2)
        generator, system, _ = loaded_system(topology, sigma=3)
        broker = system.brokers[0]
        last = max(broker.store.ids())
        broker.unsubscribe(last)
        codec = SnapshotCodec(system.wire)
        data = codec.encode_broker(broker)

        fresh = SummaryPubSub(topology, generator.schema)
        codec.restore_broker(data, fresh.brokers[0])
        minted = fresh.brokers[0].subscribe(generator.subscription())
        assert minted.local_id > last.local_id  # no id reuse

    def test_bad_magic_rejected(self, schema):
        system = SummaryPubSub(Topology.line(2), schema)
        codec = SnapshotCodec(system.wire)
        with pytest.raises(CodecError):
            codec.restore_broker(b"XXXX" + b"\x00" * 8, system.brokers[0])

    def test_wrong_broker_rejected(self, schema):
        system = SummaryPubSub(Topology.line(2), schema)
        codec = SnapshotCodec(system.wire)
        data = codec.encode_broker(system.brokers[0])
        with pytest.raises(CodecError):
            codec.restore_broker(data, system.brokers[1])

    def test_restore_into_dirty_broker_rejected(self, schema):
        system = SummaryPubSub(Topology.line(2), schema)
        codec = SnapshotCodec(system.wire)
        data = codec.encode_broker(system.brokers[0])
        system.brokers[0].subscribe(parse_subscription(schema, "price > 1"))
        with pytest.raises(ValueError):
            codec.restore_broker(data, system.brokers[0])

    def test_magic_versioned(self):
        assert SNAPSHOT_MAGIC == b"RSB2"

    def test_removed_pending_survives_and_rsb1_still_loads(self, schema):
        """RSB2 persists the removals a broker has not shipped; an RSB1
        snapshot (no such block) restores with none."""
        system = SummaryPubSub(Topology.line(2), schema)
        broker = system.brokers[0]
        sid = broker.subscribe(parse_subscription(schema, "price > 1"))
        system.run_propagation_period()
        broker.unsubscribe(sid)
        assert broker.removed_pending == {sid}
        codec = SnapshotCodec(system.wire)
        data = codec.encode_broker(broker)
        restored = SummaryPubSub(Topology.line(2), schema).brokers[0]
        codec.restore_broker(data, restored)
        assert restored.removed_pending == {sid}
        # The same state in the RSB1 layout: the removal block, which
        # follows the header, the (empty) store and the (empty) pending
        # list, cut out.
        head = ByteWriter()
        for value in (broker.broker_id, broker.store.next_local_id, 0, 0):
            head.varint(value)
        start = len(SNAPSHOT_MAGIC) + len(head)
        block = ByteWriter()
        codec.wire.write_id_list(block, {sid})
        stop = start + len(block)
        assert data[start:stop] == block.getvalue()
        legacy = b"RSB1" + data[len(SNAPSHOT_MAGIC):start] + data[stop:]
        old = SummaryPubSub(Topology.line(2), schema).brokers[0]
        codec.restore_broker(legacy, old)
        assert old.removed_pending == set()
        assert old.store.ids() == restored.store.ids()


class TestSystemRecovery:
    def test_recovered_system_routes_identically(self, tmp_path):
        topology = cable_wireless_24()
        generator, system, subs = loaded_system(topology, sigma=4)
        save_system(system, tmp_path)

        recovered = load_system(
            SummaryPubSub(topology, generator.schema), tmp_path
        )
        rng = random.Random(3)
        events = [generator.matching_event(rng.choice(subs)) for _ in range(8)]
        events += generator.events(4)
        for event in events:
            publisher = rng.randrange(topology.num_brokers)
            before = system.publish(publisher, event)
            after = recovered.publish(publisher, event)
            assert {(d.broker, d.sid) for d in before.deliveries} == {
                (d.broker, d.sid) for d in after.deliveries
            }
            assert before.hops == after.hops
            assert before.bytes_sent == after.bytes_sent

    def test_recovery_then_new_period_works(self, tmp_path):
        topology = Topology.line(3)
        generator, system, _ = loaded_system(topology, sigma=2)
        save_system(system, tmp_path)
        recovered = load_system(
            SummaryPubSub(topology, generator.schema), tmp_path
        )
        subscription = generator.subscription()
        sid = recovered.subscribe(2, subscription)
        recovered.run_propagation_period()
        event = generator.matching_event(subscription)
        outcome = recovered.publish(0, event)
        assert sid in {d.sid for d in outcome.deliveries}

    def test_restore_then_publish_not_deduped(self, tmp_path):
        """Regression: the original system publishes (brokers remember the
        publish ids), the snapshot is restored, and the recovered system
        publishes again.  Without epoch-namespaced publish ids (and dedup
        clearing on restore) the recovered router re-minted the original's
        ids and every fresh event died in the duplicate filter."""
        topology = Topology.line(4)
        generator, system, subs = loaded_system(topology, sigma=3)
        rng = random.Random(11)
        pre_save_events = [
            generator.matching_event(rng.choice(subs)) for _ in range(6)
        ]
        for event in pre_save_events:
            system.publish(rng.randrange(4), event)
        save_system(system, tmp_path)

        recovered = load_system(
            SummaryPubSub(topology, generator.schema), tmp_path
        )
        assert recovered.router.epoch != system.router.epoch
        for event in pre_save_events:  # same content, fresh publishes
            outcome = recovered.publish(0, event)
            assert {(d.broker, d.sid) for d in outcome.deliveries} == (
                recovered.ground_truth_matches(event)
            )
        suppressed = sum(
            broker.duplicates_suppressed for broker in recovered.brokers.values()
        )
        assert suppressed == 0

    def test_restore_clears_dedup_tables(self, schema):
        system = SummaryPubSub(Topology.line(2), schema)
        codec = SnapshotCodec(system.wire)
        data = codec.encode_broker(system.brokers[0])
        target = SummaryPubSub(Topology.line(2), schema)
        target.brokers[0].first_routing_of(42)  # pre-restore traffic
        codec.restore_broker(data, target.brokers[0])
        assert target.brokers[0].first_routing_of(42)  # forgotten

    def test_missing_snapshot_detected(self, tmp_path, schema):
        system = SummaryPubSub(Topology.line(3), schema)
        save_system(system, tmp_path)
        (tmp_path / "broker-1.snap").unlink()
        with pytest.raises(FileNotFoundError):
            load_system(SummaryPubSub(Topology.line(3), schema), tmp_path)

    def test_snapshot_files_per_broker(self, tmp_path, schema):
        system = SummaryPubSub(Topology.line(3), schema)
        written = save_system(system, tmp_path)
        assert [path.name for path in written] == [
            "broker-0.snap", "broker-1.snap", "broker-2.snap",
        ]

    def test_stray_snapshot_refused(self, tmp_path, schema):
        """A directory drained by a bigger deployment must not be half-
        restored into a smaller one."""
        system = SummaryPubSub(Topology.line(3), schema)
        save_system(system, tmp_path)
        with pytest.raises(ValueError, match="broker-2.snap"):
            load_system(SummaryPubSub(Topology.line(2), schema), tmp_path)

    def test_unrelated_files_are_not_strays(self, tmp_path, schema):
        system = SummaryPubSub(Topology.line(2), schema)
        save_system(system, tmp_path)
        (tmp_path / "NOTES.txt").write_text("operator scribbles")
        load_system(SummaryPubSub(Topology.line(2), schema), tmp_path)


class TestAtomicWrites:
    def test_write_leaves_no_temp_files(self, tmp_path):
        write_snapshot_atomic(tmp_path / "broker-0.snap", b"payload")
        assert [p.name for p in tmp_path.iterdir()] == ["broker-0.snap"]
        assert (tmp_path / "broker-0.snap").read_bytes() == b"payload"

    def test_overwrite_is_atomic_replacement(self, tmp_path):
        target = tmp_path / "broker-0.snap"
        write_snapshot_atomic(target, b"old state")
        write_snapshot_atomic(target, b"new state")
        assert target.read_bytes() == b"new state"
        assert [p.name for p in tmp_path.iterdir()] == ["broker-0.snap"]

    def test_save_broker_single_file(self, tmp_path, schema):
        system = SummaryPubSub(Topology.line(2), schema)
        sid = system.subscribe(1, parse_subscription(schema, "price > 5"))
        system.run_propagation_period()
        path = save_broker(system.brokers[1], tmp_path, system.wire)
        assert path == snapshot_path(tmp_path, 1)
        fresh = SummaryPubSub(Topology.line(2), schema)
        SnapshotCodec(fresh.wire).restore_broker(
            path.read_bytes(), fresh.brokers[1]
        )
        assert sid in fresh.brokers[1].kept_summary.all_ids()

    def test_truncated_snapshot_is_clear_codec_error(self, tmp_path, schema):
        """A torn write (pre-atomic-rename crash artifact) surfaces as a
        CodecError naming the broker, not a random unpack exception."""
        system = SummaryPubSub(Topology.line(2), schema)
        codec = SnapshotCodec(system.wire)
        data = codec.encode_broker(system.brokers[0])
        fresh = SummaryPubSub(Topology.line(2), schema)
        for cut in (1, 3, len(SNAPSHOT_MAGIC), len(data) - 1):
            with pytest.raises(CodecError, match="corrupt snapshot for broker 0"):
                codec.restore_broker(data[:cut], fresh.brokers[0])

    def test_garbage_interior_is_clear_codec_error(self, schema):
        system = SummaryPubSub(Topology.line(2), schema)
        codec = SnapshotCodec(system.wire)
        data = codec.encode_broker(system.brokers[0])
        mangled = data[: len(SNAPSHOT_MAGIC)] + b"\xff" * 32
        with pytest.raises(CodecError, match="corrupt snapshot for broker 0"):
            codec.restore_broker(mangled, system.brokers[0])
