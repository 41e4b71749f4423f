"""Hybrid summarization + subsumption (section 6): covered-id suppression,
on by default in every summary system."""

import random

import pytest

from repro.broker.system import SummaryPubSub
from repro.model import Event, parse_subscription
from repro.network import Topology, cable_wireless_24
from repro.workload import WorkloadConfig, WorkloadGenerator


class TestSuppression:
    def test_covered_subscription_not_propagated(self, schema):
        system = SummaryPubSub(Topology.line(3), schema)
        system.subscribe(0, parse_subscription(schema, "price < 10"))
        system.run_propagation_period()
        # An idle period still ships (empty) summaries + Merged_Brokers;
        # measure that floor, then check the covered subscription adds
        # nothing beyond it.
        baseline_start = system.propagation_metrics.bytes_sent
        system.run_propagation_period()
        empty_period_cost = system.propagation_metrics.bytes_sent - baseline_start
        before = system.propagation_metrics.bytes_sent
        system.subscribe(0, parse_subscription(schema, "price < 5"))
        system.run_propagation_period()
        assert system.propagation_metrics.bytes_sent - before == empty_period_cost
        assert system.total_suppressed() == 1

    def test_uncovered_subscription_propagates(self, schema):
        system = SummaryPubSub(Topology.line(3), schema)
        system.subscribe(0, parse_subscription(schema, "price < 5"))
        system.run_propagation_period()
        before = system.propagation_metrics.bytes_sent
        system.subscribe(0, parse_subscription(schema, "volume > 5"))
        system.run_propagation_period()
        assert system.propagation_metrics.bytes_sent > before


class TestDelivery:
    def test_covered_subscription_still_delivered(self, schema):
        system = SummaryPubSub(Topology.line(3), schema)
        coverer = system.subscribe(2, parse_subscription(schema, "price < 10"))
        covered = system.subscribe(2, parse_subscription(schema, "price < 5"))
        system.run_propagation_period()
        outcome = system.publish(0, Event.of(price=3.0))
        assert {d.sid for d in outcome.deliveries} == {coverer, covered}

    def test_event_matching_only_coverer(self, schema):
        system = SummaryPubSub(Topology.line(3), schema)
        coverer = system.subscribe(2, parse_subscription(schema, "price < 10"))
        system.subscribe(2, parse_subscription(schema, "price < 5"))
        system.run_propagation_period()
        outcome = system.publish(0, Event.of(price=7.0))
        assert {d.sid for d in outcome.deliveries} == {coverer}

    def test_matches_oracle_on_covering_workload(self):
        config = WorkloadConfig(sigma=8, subsumption=0.9)
        generator = WorkloadGenerator(config, seed=23)
        system = SummaryPubSub(cable_wireless_24(), generator.schema)
        subs = []
        for broker_id in system.topology.brokers:
            for subscription in generator.subscriptions(config.sigma):
                system.subscribe(broker_id, subscription)
                subs.append(subscription)
        system.run_propagation_period()
        rng = random.Random(1)
        events = [generator.matching_event(rng.choice(subs)) for _ in range(15)]
        events += generator.events(10)
        for event in events:
            outcome = system.publish(rng.randrange(24), event)
            got = {(d.broker, d.sid) for d in outcome.deliveries}
            assert got == system.ground_truth_matches(event)


class TestChurnSafety:
    def test_frontier_removal_promotes_covered(self, schema):
        system = SummaryPubSub(Topology.line(3), schema)
        coverer = system.subscribe(2, parse_subscription(schema, "price < 10"))
        covered = system.subscribe(2, parse_subscription(schema, "price < 5"))
        system.run_propagation_period()
        assert system.unsubscribe(2, coverer)
        system.run_propagation_period()  # promotion propagates here
        outcome = system.publish(0, Event.of(price=3.0))
        assert {d.sid for d in outcome.deliveries} == {covered}

    def test_non_frontier_removal_is_plain(self, schema):
        system = SummaryPubSub(Topology.line(3), schema)
        coverer = system.subscribe(2, parse_subscription(schema, "price < 10"))
        covered = system.subscribe(2, parse_subscription(schema, "price < 5"))
        system.run_propagation_period()
        assert system.unsubscribe(2, covered)
        outcome = system.publish(0, Event.of(price=3.0))
        assert {d.sid for d in outcome.deliveries} == {coverer}


class TestBandwidthBenefit:
    def test_hybrid_cheaper_on_covering_workloads(self, schema):
        """When clients' interests nest (a broad watcher plus many narrow
        ones — the structure subsumption exploits), the hybrid prefilter
        strips the narrow subscriptions' ids from everything propagated."""
        def covering_workload(broker_id):
            subs = [parse_subscription(schema, f"price < {100 + broker_id}")]
            subs += [
                parse_subscription(
                    schema, f"price < {10 + i} AND symbol = SYM{broker_id}"
                )
                for i in range(8)
            ]
            return subs

        def propagate(cls, **kwargs):
            system = cls(cable_wireless_24(), schema, **kwargs)
            for broker_id in system.topology.brokers:
                for subscription in covering_workload(broker_id):
                    system.subscribe(broker_id, subscription)
            system.run_propagation_period()
            return system.propagation_metrics.bytes_sent

        hybrid_bytes = propagate(SummaryPubSub)
        # Suppression is on by default everywhere now; the "plain" side of
        # this ablation must pin it off to measure the benefit.
        plain_bytes = propagate(SummaryPubSub, suppress_covered=False)
        assert hybrid_bytes < plain_bytes * 0.5
