"""The timed (latency-aware) network variant."""

import pytest

from repro.model import Event, parse_subscription, stock_schema
from repro.network.latency import SeededLatency, TimedNetwork, UniformLatency
from repro.network.simulator import NetworkError
from repro.network.topology import Topology
from repro.wire.messages import EventMessage


class Recorder:
    def __init__(self):
        self.received = []

    def receive(self, src, message):
        self.received.append((src, message))


def event_message(value=1.0):
    return EventMessage(event=Event.of(price=value), brocli=frozenset())


class TestLatencyModels:
    def test_uniform(self):
        model = UniformLatency(5.0)
        assert model.link_delay(0, 1) == 5.0
        assert model.path_delay(Topology.line(4), 0, 3) == 15.0
        assert model.path_delay(Topology.line(4), 2, 2) == 0.0

    def test_uniform_validation(self):
        with pytest.raises(ValueError):
            UniformLatency(0.0)

    def test_seeded_is_stable_and_symmetric(self):
        model = SeededLatency(seed=7)
        assert model.link_delay(3, 8) == model.link_delay(8, 3)
        assert model.link_delay(3, 8) == SeededLatency(seed=7).link_delay(3, 8)
        assert SeededLatency(seed=8).link_delay(3, 8) != model.link_delay(3, 8)

    def test_seeded_in_range(self):
        model = SeededLatency(lo=2.0, hi=4.0, seed=1)
        for a in range(5):
            for b in range(a + 1, 5):
                assert 2.0 <= model.link_delay(a, b) <= 4.0

    def test_seeded_validation(self):
        with pytest.raises(ValueError):
            SeededLatency(lo=0.0, hi=1.0)
        with pytest.raises(ValueError):
            SeededLatency(lo=5.0, hi=1.0)


class TestTimedNetwork:
    def test_delivery_in_timestamp_order(self):
        network = TimedNetwork(Topology.line(4), latency=UniformLatency(10.0))
        log = []

        class Ordered:
            def __init__(self, broker_id):
                self.broker_id = broker_id

            def receive(self, src, message):
                log.append((network.now, self.broker_id))

        for broker in range(4):
            network.attach(broker, Ordered(broker))
        network.send(0, 3, event_message())  # arrives at t=30
        network.send(0, 1, event_message())  # arrives at t=10
        network.run()
        assert log == [(10.0, 1), (30.0, 3)]

    def test_clock_monotone(self):
        network = TimedNetwork(Topology.line(3), latency=UniformLatency(1.0))
        network.attach(1, Recorder())
        network.attach(2, Recorder())
        network.send(0, 2, event_message())
        network.send(0, 1, event_message())
        times = []
        while network.has_pending:
            network.step()
            times.append(network.now)
        assert times == sorted(times)

    def test_step_delivers_one(self):
        network = TimedNetwork(Topology.line(3), latency=UniformLatency(1.0))
        receiver = Recorder()
        network.attach(1, receiver)
        network.send(0, 1, event_message(1.0))
        network.send(0, 1, event_message(2.0))
        assert network.step() == 1
        assert len(receiver.received) == 1

    def test_flush_iteration_drains(self):
        network = TimedNetwork(Topology.line(3), latency=UniformLatency(1.0))
        receiver = Recorder()
        network.attach(1, receiver)
        network.send(0, 1, event_message(1.0))
        network.send(0, 1, event_message(2.0))
        network.flush_iteration()
        assert len(receiver.received) == 2

    def test_reset_clock(self):
        network = TimedNetwork(Topology.line(3), latency=UniformLatency(1.0))
        network.attach(1, Recorder())
        network.send(0, 1, event_message())
        network.run()
        assert network.now > 0
        network.reset_clock()
        assert network.now == 0.0

    def test_reset_clock_refused_in_flight(self):
        network = TimedNetwork(Topology.line(3), latency=UniformLatency(1.0))
        network.attach(1, Recorder())
        network.send(0, 1, event_message())
        with pytest.raises(NetworkError):
            network.reset_clock()

    def test_metrics_identical_to_round_network(self):
        from repro.network.simulator import Network

        timed = TimedNetwork(Topology.line(4), latency=UniformLatency(1.0))
        plain = Network(Topology.line(4))
        for network in (timed, plain):
            network.attach(3, Recorder())
            network.send(0, 3, event_message())
            network.run()
        assert timed.metrics.snapshot() == plain.metrics.snapshot()


class TestEndToEndLatency:
    def test_publish_reports_latency(self):
        from repro.broker import SummaryPubSub
        from repro.network import cable_wireless_24

        schema = stock_schema()
        system = SummaryPubSub(
            cable_wireless_24(), schema, latency=SeededLatency(seed=4)
        )
        system.subscribe(5, parse_subscription(schema, "price > 1"))
        system.run_propagation_period()
        outcome = system.publish(0, Event.of(price=5.0))
        assert outcome.latency_ms is not None and outcome.latency_ms > 0
        assert all(d.at is not None for d in outcome.deliveries)
        # A burst of one is the same publish: same latency.
        twin = SummaryPubSub(
            cable_wireless_24(), schema, latency=SeededLatency(seed=4)
        )
        twin.subscribe(5, parse_subscription(schema, "price > 1"))
        twin.run_propagation_period()
        burst = twin.publish_batch(0, [Event.of(price=5.0)])
        assert burst.latency_ms == outcome.latency_ms

    def test_plain_network_reports_no_latency(self):
        from repro.broker import SummaryPubSub
        from repro.network import cable_wireless_24

        schema = stock_schema()
        system = SummaryPubSub(cable_wireless_24(), schema)
        system.subscribe(5, parse_subscription(schema, "price > 1"))
        system.run_propagation_period()
        outcome = system.publish(0, Event.of(price=5.0))
        assert outcome.latency_ms is None

    def test_farther_subscriber_means_larger_latency(self):
        from repro.broker import SummaryPubSub

        schema = stock_schema()
        system = SummaryPubSub(
            Topology.line(6), schema, latency=UniformLatency(10.0)
        )
        near = system.subscribe(1, parse_subscription(schema, "price > 1"))
        far = system.subscribe(5, parse_subscription(schema, "volume > 1"))
        system.run_propagation_period()
        near_out = system.publish(0, Event.of(price=5.0))
        far_out = system.publish(0, Event.of(volume=5))
        assert far_out.latency_ms > near_out.latency_ms
