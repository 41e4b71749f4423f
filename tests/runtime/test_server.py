"""BrokerRuntime behavior: sessions, backpressure, periods, protocol rules."""

import asyncio

import pytest

from repro.model import Event, parse_subscription, stock_schema
from repro.model.schema import SchemaError
from repro.network import Topology
from repro.runtime.client import ProducerSession, SubscribeError, SubscriberSession
from repro.runtime.framing import FrameConnection, write_frame
from repro.runtime.server import BrokerRuntime, PeerLink
from repro.wire.messages import (
    EventMessage,
    MessageCodec,
    NotifyMessage,
    PingMessage,
    SubAckMessage,
    SubscribeMessage,
    SummaryRequestMessage,
)


def run(coroutine):
    return asyncio.run(coroutine)


SCHEMA = stock_schema()
SUB_TEXT = "symbol = OTE AND price < 8.70 AND price > 8.30"


def matching_event() -> Event:
    return Event.of(symbol="OTE", price=8.40)


def non_matching_event() -> Event:
    return Event.of(symbol="OTE", price=9.99)


async def single_broker():
    runtime = BrokerRuntime(0, Topology.line(1), SCHEMA, paranoid=True)
    await runtime.start(0)
    return runtime


class TestClientFlow:
    def test_subscribe_publish_notify_roundtrip(self):
        async def body():
            runtime = await single_broker()
            subscriber = await SubscriberSession.connect(
                "127.0.0.1", runtime.port, runtime.message_codec
            )
            sid = await subscriber.subscribe(parse_subscription(SCHEMA, SUB_TEXT))
            assert sid.broker == 0
            await runtime.period_act()
            runtime.period_close()

            producer = await ProducerSession.connect(
                "127.0.0.1", runtime.port, runtime.message_codec
            )
            await producer.publish(matching_event())
            await producer.publish(non_matching_event())
            await producer.flush()
            await subscriber.flush()
            assert [s for s, _e in subscriber.deliveries] == [sid]
            assert subscriber.deliveries[0][1].get("price") == 8.40

            await producer.close()
            await subscriber.close()
            await runtime.shutdown(drain=False)

        run(body())

    def test_unsubscribe_stops_notifications(self):
        async def body():
            runtime = await single_broker()
            subscriber = await SubscriberSession.connect(
                "127.0.0.1", runtime.port, runtime.message_codec
            )
            sid = await subscriber.subscribe(parse_subscription(SCHEMA, SUB_TEXT))
            await runtime.period_act()
            runtime.period_close()
            await subscriber.unsubscribe(sid)
            assert subscriber.sids == []

            producer = await ProducerSession.connect(
                "127.0.0.1", runtime.port, runtime.message_codec
            )
            await producer.publish(matching_event())
            await producer.flush()
            await subscriber.flush()
            assert subscriber.deliveries == []

            # Unsubscribing again is a clean request-level error.
            with pytest.raises(SubscribeError, match="unknown subscription"):
                await subscriber.unsubscribe(sid)

            await producer.close()
            await subscriber.close()
            await runtime.shutdown(drain=False)

        run(body())

    def test_pending_subscription_matches_only_after_period(self):
        async def body():
            runtime = await single_broker()
            subscriber = await SubscriberSession.connect(
                "127.0.0.1", runtime.port, runtime.message_codec
            )
            await subscriber.subscribe(parse_subscription(SCHEMA, SUB_TEXT))
            producer = await ProducerSession.connect(
                "127.0.0.1", runtime.port, runtime.message_codec
            )
            await producer.publish(matching_event())
            await producer.flush()
            await subscriber.flush()
            assert subscriber.deliveries == []  # not propagated yet

            await runtime.period_act()
            runtime.period_close()
            await producer.publish(matching_event())
            await producer.flush()
            await subscriber.flush()
            assert len(subscriber.deliveries) == 1

            await producer.close()
            await subscriber.close()
            await runtime.shutdown(drain=False)

        run(body())


class TestProtocolRules:
    def test_first_frame_must_be_hello(self):
        async def body():
            runtime = await single_broker()
            reader, writer = await asyncio.open_connection("127.0.0.1", runtime.port)
            conn = FrameConnection(reader, writer, runtime.message_codec)
            await conn.send(PingMessage(token=1))  # not a HELLO
            assert await conn.recv() is None  # broker drops the connection
            await conn.close()
            await runtime.shutdown(drain=False)

        run(body())

    def test_subscribe_before_hello_on_producer_role_still_acked(self):
        # Role field is advisory for SUB/PUB separation; the broker answers
        # any client-role session's SUBSCRIBE (one socket can do both).
        async def body():
            runtime = await single_broker()
            producer = await ProducerSession.connect(
                "127.0.0.1", runtime.port, runtime.message_codec
            )
            await producer._conn.send(
                SubscribeMessage(
                    request_id=9,
                    subscription=parse_subscription(SCHEMA, SUB_TEXT),
                )
            )
            reply = await producer._conn.recv()
            assert isinstance(reply, SubAckMessage) and reply.ok
            await producer.close()
            await runtime.shutdown(drain=False)

        run(body())

    def test_invalid_frame_drops_connection_not_broker(self):
        async def body():
            runtime = await single_broker()
            producer = await ProducerSession.connect(
                "127.0.0.1", runtime.port, runtime.message_codec
            )
            # Out-of-schema events cannot even be encoded (client-side guard) …
            bogus = Event.of(symbol="OTE", nonsense=1.0)
            with pytest.raises(SchemaError):
                runtime.message_codec.encode(
                    EventMessage(event=bogus, brocli=frozenset(), publish_id=0)
                )
            # … so corruption reaches the broker as undecodable bytes.
            await write_frame(producer._conn._writer, b"\xff\xfe not a message")
            assert await producer._conn.recv() is None  # session dropped
            # The broker itself survives and serves new sessions.
            probe = await ProducerSession.connect(
                "127.0.0.1", runtime.port, runtime.message_codec
            )
            await probe.flush()
            await probe.close()
            await producer.close()
            await runtime.shutdown(drain=False)

        run(body())


class TestBackpressure:
    def test_full_peer_queue_counts_stall_and_blocks(self):
        async def body():
            topology = Topology.line(2)
            runtime = BrokerRuntime(0, topology, SCHEMA, queue_frames=2)
            link = PeerLink(runtime, 1, ("127.0.0.1", 1), queue_frames=2)
            # Fill the queue without a writer task draining it.
            link.queue.put_nowait(PingMessage(token=1))
            link.queue.put_nowait(PingMessage(token=2))
            assert link.queue.full()

            async def produce():
                link._task = asyncio.current_task()  # suppress writer spawn
                await link.enqueue(PingMessage(token=3))

            producer_task = asyncio.create_task(produce())
            await asyncio.sleep(0.01)
            assert not producer_task.done()  # blocked on the bounded queue
            assert runtime.metrics.backpressure_stalls == 1
            link.queue.get_nowait()  # consumer frees one slot
            link.queue.task_done()
            await asyncio.wait_for(producer_task, 1.0)
            assert runtime.frames_enqueued == 1

        run(body())

    def test_stall_counter_surfaces_in_registry(self):
        async def body():
            runtime = BrokerRuntime(0, Topology.line(1), SCHEMA)
            runtime.metrics.record_stall()
            registry = runtime.collect_metrics()
            snapshot = registry.snapshot() if hasattr(registry, "snapshot") else None
            counter = registry.counter("runtime.network.backpressure_stalls")
            assert counter.value == 1

        run(body())


class _RecordingWriter:
    """A StreamWriter stand-in that keeps every byte written to it."""

    def __init__(self):
        self.data = bytearray()

    def write(self, data):
        self.data.extend(data)

    async def drain(self):
        pass

    def close(self):
        pass

    async def wait_closed(self):
        pass

    def get_extra_info(self, name):
        return None


class _OpenReader:
    def at_eof(self):
        return False


class TestMetering:
    def test_peer_lane_meters_each_written_frame_once(self):
        """Bytes are charged where frames are written: per frame, the
        payload length times the overlay path length, from the one encode
        the writer performs."""

        async def body():
            runtime = BrokerRuntime(0, Topology.line(3), SCHEMA)
            runtime.set_peers({2: ("127.0.0.1", 1)})
            codec = runtime.message_codec
            encoded = []
            encode = codec.encode

            def counting_encode(message):
                encoded.append(message)
                return encode(message)

            codec.encode = counting_encode
            writer = _RecordingWriter()
            link = runtime._link(2)
            link._conn = FrameConnection(_OpenReader(), writer, codec)
            sid = runtime.broker.subscribe(parse_subscription(SCHEMA, SUB_TEXT))
            frames = [
                EventMessage(event=matching_event(), brocli=frozenset({0}), publish_id=7),
                NotifyMessage(event=matching_event(), matched=frozenset({sid}), publish_id=7),
                SummaryRequestMessage(generation=3),
            ]
            for frame in frames:
                runtime.network.send(0, 2, frame)
            # Sending only buffers: nothing is encoded or charged yet.
            assert encoded == [] and runtime.metrics.messages == 0

            await runtime._pump()
            await link.flush()
            assert encoded == frames  # one encode per frame written
            sizes = [len(MessageCodec(runtime.wire).encode(f)) for f in frames]
            assert runtime.metrics.messages == len(frames)
            assert runtime.metrics.payload_bytes == sum(sizes)
            assert runtime.metrics.bytes_sent == 2 * sum(sizes)  # two links
            assert len(writer.data) == sum(sizes) + 4 * len(frames)
            await link.close()

        run(body())


class TestPeriodMachinery:
    def test_act_targets_match_shared_policy(self):
        """The live act and the simulator's engine choose the same target."""
        from repro.broker.propagation import select_period_target

        async def body():
            topology = Topology.star(4)  # broker 0 is the hub
            runtime = BrokerRuntime(1, topology, SCHEMA)
            expected = select_period_target(topology, runtime.broker, runtime.policy)
            target = await runtime.period_act()
            assert target == expected == 0
            # The hub itself has no equal-or-higher-degree neighbor.
            hub = BrokerRuntime(0, topology, SCHEMA)
            assert await hub.period_act() is None

        run(body())

    def test_close_preserves_post_act_pending(self):
        async def body():
            runtime = BrokerRuntime(0, Topology.line(1), SCHEMA)
            await runtime.period_act()
            sid = runtime.broker.subscribe(parse_subscription(SCHEMA, SUB_TEXT))
            runtime.period_close()  # must NOT drop the new pending entry
            assert [p_sid for p_sid, _s in runtime.broker.pending] == [sid]
            await runtime.period_act()
            runtime.period_close()
            assert runtime.broker.pending == []
            assert sid in runtime.broker.kept_summary.all_ids()

        run(body())

    def test_quiet_period_keeps_the_compiled_snapshot(self):
        """A period with nothing to fold leaves the kept summary's
        generation alone, so the matcher is not recompiled."""

        async def body():
            runtime = BrokerRuntime(0, Topology.line(1), SCHEMA)
            sid = runtime.broker.subscribe(parse_subscription(SCHEMA, SUB_TEXT))
            await runtime.period_act()
            runtime.period_close()
            assert runtime.broker.match_kept_many([matching_event()]) == [{sid}]
            compiled = runtime.broker._compiled
            generation = compiled.generation

            await runtime.period_act()  # nothing pending: an empty delta
            runtime.period_close()
            assert compiled.generation == generation
            assert not compiled.is_stale

        run(body())

    def test_timer_mode_propagates_without_coordination(self):
        async def body():
            topology = Topology.line(2)
            runtimes = {
                b: BrokerRuntime(
                    b, topology, SCHEMA, period_interval=0.03, paranoid=True
                )
                for b in topology.brokers
            }
            addresses = {}
            for b, runtime in runtimes.items():
                addresses[b] = ("127.0.0.1", await runtime.start(0))
            for runtime in runtimes.values():
                runtime.set_peers(addresses)
            subscriber = await SubscriberSession.connect(
                "127.0.0.1", runtimes[1].port, runtimes[1].message_codec
            )
            sid = await subscriber.subscribe(parse_subscription(SCHEMA, SUB_TEXT))
            # Wait for the timers to run a couple of acts.
            for _ in range(100):
                await asyncio.sleep(0.02)
                if 1 in runtimes[0].broker.merged_brokers:
                    break
            assert 1 in runtimes[0].broker.merged_brokers
            producer = await ProducerSession.connect(
                "127.0.0.1", runtimes[0].port, runtimes[0].message_codec
            )
            await producer.publish(matching_event())
            await producer.flush()
            for _ in range(100):
                await asyncio.sleep(0.02)
                if subscriber.deliveries:
                    break
            assert [s for s, _e in subscriber.deliveries] == [sid]
            await producer.close()
            await subscriber.close()
            for runtime in runtimes.values():
                await runtime.shutdown(drain=False)

        run(body())
