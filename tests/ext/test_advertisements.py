"""Advertisements in the summary paradigm (section-6 extension)."""

import pytest

from repro.ext.advertisements import (
    AdvertisementError,
    AdvertisingPubSub,
    constraints_intersect,
    subscription_intersects_advertisement,
)
from repro.model import Constraint, Event, Operator, parse_subscription
from repro.network import Topology, cable_wireless_24


class TestConstraintIntersection:
    def test_overlapping_ranges(self):
        a = [Constraint.arithmetic("p", Operator.GT, 1.0)]
        b = [Constraint.arithmetic("p", Operator.LT, 5.0)]
        assert constraints_intersect(a, b)

    def test_disjoint_ranges(self):
        a = [Constraint.arithmetic("p", Operator.GT, 5.0)]
        b = [Constraint.arithmetic("p", Operator.LT, 1.0)]
        assert not constraints_intersect(a, b)

    def test_point_inside_range(self):
        a = [Constraint.arithmetic("p", Operator.EQ, 3.0)]
        b = [
            Constraint.arithmetic("p", Operator.GT, 1.0),
            Constraint.arithmetic("p", Operator.LT, 5.0),
        ]
        assert constraints_intersect(a, b)
        outside = [Constraint.arithmetic("p", Operator.EQ, 9.0)]
        assert not constraints_intersect(outside, b)

    def test_string_prefixes(self):
        ote = [Constraint.string("s", Operator.PREFIX, "OTE")]
        ot = [Constraint.string("s", Operator.PREFIX, "OT")]
        ibm = [Constraint.string("s", Operator.PREFIX, "IBM")]
        assert constraints_intersect(ote, ot)
        assert not constraints_intersect(ote, ibm)

    def test_string_literal_vs_prefix(self):
        literal = [Constraint.string("s", Operator.EQ, "OTE")]
        assert constraints_intersect(
            literal, [Constraint.string("s", Operator.PREFIX, "OT")]
        )
        assert not constraints_intersect(
            literal, [Constraint.string("s", Operator.PREFIX, "IBM")]
        )

    def test_family_mismatch_rejected(self):
        with pytest.raises(ValueError):
            constraints_intersect(
                [Constraint.arithmetic("p", Operator.EQ, 1.0)],
                [Constraint.string("s", Operator.EQ, "x")],
            )


class TestSubscriptionAdvertisementIntersection:
    def test_shared_attribute_must_overlap(self, schema):
        sub = parse_subscription(schema, "price > 100")
        adv = parse_subscription(schema, "price < 50")
        assert not subscription_intersects_advertisement(sub, adv)

    def test_unshared_attributes_never_block(self, schema):
        sub = parse_subscription(schema, "volume > 100")
        adv = parse_subscription(schema, "price < 50")
        assert subscription_intersects_advertisement(sub, adv)

    def test_paper_style_example(self, schema, paper_subscriptions):
        s1, _ = paper_subscriptions
        nyse_cheap = parse_subscription(schema, "exchange = NYSE AND price < 20")
        lse_only = parse_subscription(schema, "exchange = LSE")
        assert subscription_intersects_advertisement(s1, nyse_cheap)
        assert not subscription_intersects_advertisement(s1, lse_only)


@pytest.fixture
def adv_system(schema):
    return AdvertisingPubSub(Topology.line(3), schema)


class TestAdvertisingSystem:
    @pytest.mark.parametrize("suppress", [None, True])
    def test_brokers_take_the_system_settings(self, schema, suppress):
        """Every broker gets the system's dedup capacity and id space, and
        covered-id suppression stays off (the dormant set replaces it)."""
        extra = {} if suppress is None else {"suppress_covered": suppress}
        system = AdvertisingPubSub(
            Topology.line(2), schema, dedup_capacity=16, max_subscriptions=1 << 10,
            **extra,
        )
        assert system.dedup_capacity == 16
        for broker in system.brokers.values():
            assert broker.dedup_capacity == 16
            assert broker.store.max_subscriptions == 1 << 10
            assert not broker.suppress_covered

    def test_unadvertised_subscription_stays_dormant(self, adv_system, schema):
        adv_system.subscribe(2, parse_subscription(schema, "price > 1"))
        assert adv_system.total_dormant() == 1
        snapshot = adv_system.run_propagation_period()
        # Summaries ship but carry no id for the dormant subscription.
        for broker in adv_system.brokers.values():
            if broker.broker_id != 2:
                assert not broker.kept_summary.all_ids()

    def test_advertisement_wakes_dormant(self, adv_system, schema):
        sid = adv_system.subscribe(2, parse_subscription(schema, "price > 1"))
        adv_system.run_propagation_period()
        adv_system.advertise(0, parse_subscription(schema, "price > 0 AND price < 100"))
        assert adv_system.total_dormant() == 0
        adv_system.run_propagation_period()
        outcome = adv_system.publish(0, Event.of(price=5.0))
        assert {d.sid for d in outcome.deliveries} == {sid}

    def test_subscription_after_advertisement_propagates_directly(
        self, adv_system, schema
    ):
        adv_system.advertise(0, parse_subscription(schema, "price < 100"))
        sid = adv_system.subscribe(2, parse_subscription(schema, "price > 1"))
        assert adv_system.total_dormant() == 0
        adv_system.run_propagation_period()
        outcome = adv_system.publish(0, Event.of(price=5.0))
        assert {d.sid for d in outcome.deliveries} == {sid}

    def test_non_intersecting_subscription_stays_dormant(self, adv_system, schema):
        adv_system.advertise(0, parse_subscription(schema, "price < 10"))
        adv_system.subscribe(2, parse_subscription(schema, "price > 50"))
        assert adv_system.total_dormant() == 1

    def test_publish_enforces_advertisements(self, adv_system, schema):
        with pytest.raises(AdvertisementError):
            adv_system.publish(0, Event.of(price=5.0))
        with pytest.raises(AdvertisementError):
            adv_system.publish_batch(0, [Event.of(price=5.0)])
        adv_system.advertise(0, parse_subscription(schema, "price < 100"))
        adv_system.publish(0, Event.of(price=5.0))  # now fine
        with pytest.raises(AdvertisementError):
            adv_system.publish_batch(0, [Event.of(price=5.0), Event.of(price=500.0)])

    def test_enforcement_is_per_publisher(self, adv_system, schema):
        adv_system.advertise(0, parse_subscription(schema, "price < 100"))
        with pytest.raises(AdvertisementError):
            adv_system.publish(1, Event.of(price=5.0))

    def test_enforce_false_allows_unadvertised(self, schema):
        system = AdvertisingPubSub(Topology.line(3), schema, enforce=False)
        system.publish(0, Event.of(price=5.0))  # no error, no deliveries

    def test_unsubscribe_dormant(self, adv_system, schema):
        sid = adv_system.subscribe(2, parse_subscription(schema, "price > 1"))
        assert adv_system.unsubscribe(2, sid)
        assert adv_system.total_dormant() == 0


class TestBandwidthBenefit:
    def test_dormant_subscriptions_cost_nothing(self, schema):
        """Brokers whose clients watch unadvertised spaces add no id bytes."""
        topology = cable_wireless_24()

        def load(system):
            # Producers only publish cheap NYSE stock.
            system.advertise(
                0, parse_subscription(schema, "exchange = NYSE AND price < 100")
            )
            for broker_id in topology.brokers:
                # One relevant and three irrelevant interests per broker.
                system.subscribe(
                    broker_id, parse_subscription(schema, f"price < {broker_id + 2}")
                )
                for i in range(3):
                    system.subscribe(
                        broker_id,
                        parse_subscription(
                            schema, f"exchange = LSE AND volume > {i * 100}"
                        ),
                    )
            system.run_propagation_period()
            return system

        filtered = load(AdvertisingPubSub(topology, schema))
        assert filtered.total_dormant() == 3 * topology.num_brokers
        # Compare against the same system with a universal advertisement.
        unfiltered = AdvertisingPubSub(topology, schema)
        unfiltered.advertise(0, parse_subscription(schema, "price < 1000000"))
        unfiltered.advertise(0, parse_subscription(schema, "volume >= 0"))
        for broker_id in topology.brokers:
            unfiltered.subscribe(
                broker_id, parse_subscription(schema, f"price < {broker_id + 2}")
            )
            for i in range(3):
                unfiltered.subscribe(
                    broker_id,
                    parse_subscription(schema, f"exchange = LSE AND volume > {i * 100}"),
                )
        unfiltered.run_propagation_period()
        assert (
            filtered.propagation_metrics.bytes_sent
            < unfiltered.propagation_metrics.bytes_sent
        )
