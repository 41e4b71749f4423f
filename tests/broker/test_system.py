"""End-to-end SummaryPubSub: delivery oracle, storage, churn."""

import math
import random

import pytest

from repro.broker.system import SummaryPubSub
from repro.model import Event, SchemaError, parse_subscription, stock_schema
from repro.network import Topology, cable_wireless_24
from repro.summary import Precision
from repro.workload import WorkloadConfig, WorkloadGenerator


@pytest.fixture(scope="module")
def loaded_system():
    """A CW24 system with a seeded workload, propagated once."""
    config = WorkloadConfig(sigma=8, subsumption=0.5)
    generator = WorkloadGenerator(config, seed=11)
    system = SummaryPubSub(cable_wireless_24(), generator.schema)
    for broker_id in system.topology.brokers:
        for subscription in generator.subscriptions(config.sigma):
            system.subscribe(broker_id, subscription)
    system.run_propagation_period()
    return generator, system


class TestDeliveryOracle:
    def test_deliveries_equal_ground_truth(self, loaded_system):
        generator, system = loaded_system
        rng = random.Random(5)
        for event in generator.events(25):
            publisher = rng.randrange(system.topology.num_brokers)
            outcome = system.publish(publisher, event)
            got = {(d.broker, d.sid) for d in outcome.deliveries}
            assert got == system.ground_truth_matches(event)

    def test_publish_validates_event(self, loaded_system):
        _, system = loaded_system
        with pytest.raises(Exception):
            system.publish(0, Event.of(nonexistent=1.0))

    def test_publish_rejects_non_finite_values(self, schema):
        """Summaries place NaN and the infinities where
        ``Subscription.matches`` does not: ``inf`` missed ``price > 5``
        and ``nan`` was delivered against it."""
        system = SummaryPubSub(Topology.line(2), schema, precision=Precision.EXACT)
        system.subscribe(1, parse_subscription(schema, "price > 5"))
        system.run_propagation_period()
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(SchemaError, match="not finite"):
                system.publish(0, Event.of(price=value))
        assert system.publish(0, Event.of(price=6.0)).deliveries

    def test_publish_result_metrics_are_deltas(self, loaded_system):
        generator, system = loaded_system
        first = system.publish(0, generator.event())
        second = system.publish(0, generator.event())
        assert first.hops > 0 and second.hops > 0
        assert first.messages == first.hops


class TestPrecisionModes:
    @pytest.mark.parametrize("precision", [Precision.COARSE, Precision.EXACT])
    def test_both_modes_deliver_exactly(self, precision):
        config = WorkloadConfig(subsumption=0.7)
        generator = WorkloadGenerator(config, seed=3)
        system = SummaryPubSub(
            Topology.random_tree(8, seed=1), generator.schema, precision=precision
        )
        for broker_id in system.topology.brokers:
            for subscription in generator.subscriptions(5):
                system.subscribe(broker_id, subscription)
        system.run_propagation_period()
        for event in generator.events(15):
            outcome = system.publish(0, event)
            got = {(d.broker, d.sid) for d in outcome.deliveries}
            assert got == system.ground_truth_matches(event)

    def test_exact_mode_has_no_false_positive_notifies(self):
        config = WorkloadConfig(subsumption=0.9)
        generator = WorkloadGenerator(config, seed=9)
        system = SummaryPubSub(
            Topology.line(4), generator.schema, precision=Precision.EXACT
        )
        for broker_id in system.topology.brokers:
            for subscription in generator.subscriptions(10):
                system.subscribe(broker_id, subscription)
        system.run_propagation_period()
        for event in generator.events(20):
            system.publish(0, event)
        assert all(
            broker.false_positive_notifies == 0
            for broker in system.brokers.values()
        )


class TestChurn:
    def test_unsubscribe_stops_delivery(self, schema):
        system = SummaryPubSub(Topology.line(3), schema)
        sid = system.subscribe(2, parse_subscription(schema, "price > 1"))
        system.run_propagation_period()
        event = Event.of(price=5.0)
        assert system.publish(0, event).matched_brokers == {2}
        assert system.unsubscribe(2, sid)
        # Remote summaries still hold the id; the home re-check drops it.
        assert system.publish(0, event).deliveries == []
        assert not system.unsubscribe(2, sid)

    def test_full_refresh_purges_remote_state(self, schema):
        system = SummaryPubSub(Topology.line(3), schema)
        sid = system.subscribe(2, parse_subscription(schema, "price > 1"))
        system.run_propagation_period()
        system.unsubscribe(2, sid)
        system.run_full_refresh()
        for broker in system.brokers.values():
            assert sid not in broker.kept_summary.all_ids()

    def test_full_refresh_keeps_live_subscriptions(self, schema):
        system = SummaryPubSub(Topology.line(3), schema)
        dead = system.subscribe(2, parse_subscription(schema, "price > 100"))
        live = system.subscribe(1, parse_subscription(schema, "price > 1"))
        system.run_propagation_period()
        system.unsubscribe(2, dead)
        system.run_full_refresh()
        outcome = system.publish(0, Event.of(price=5.0))
        assert {d.sid for d in outcome.deliveries} == {live}

    def test_subscription_before_propagation_not_yet_visible_remotely(self, schema):
        system = SummaryPubSub(Topology.line(3), schema)
        system.subscribe(2, parse_subscription(schema, "price > 1"))
        # No propagation period yet: a remote publish cannot find it.
        outcome = system.publish(0, Event.of(price=5.0))
        assert outcome.deliveries == []


class TestStorage:
    def test_storage_grows_with_subscriptions(self, schema):
        system = SummaryPubSub(Topology.line(4), schema)
        system.subscribe(0, parse_subscription(schema, "price > 1"))
        system.run_propagation_period()
        small = system.total_summary_storage()
        for i in range(20):
            system.subscribe(0, parse_subscription(schema, f"volume > {i * 1000}"))
        system.run_propagation_period()
        assert system.total_summary_storage() > small

    def test_breakdown_sums_to_total(self, loaded_system):
        _, system = loaded_system
        breakdown = system.storage_breakdown()
        assert sum(breakdown.values()) == system.total_summary_storage()
        assert set(breakdown) == set(system.topology.brokers)
