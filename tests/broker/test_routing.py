"""Algorithm 3 — BROCLI event routing, including the paper's example 3."""

import pytest

from repro.broker.propagation import TargetPolicy
from repro.broker.system import SummaryPubSub
from repro.network import Topology, cable_wireless_24, paper_example_tree
from repro.workload.popularity import (
    draw_matched_sets,
    popularity_event,
    popularity_schema,
    probe_subscription,
)


def walk_reference(system):
    """Point every broker's summary check at the reference Algorithm-1
    walk (``kept_summary.match``): the oracle the compiled engine is held to."""
    for broker in system.brokers.values():
        broker.match_kept_many = lambda events, b=broker: [
            b.kept_summary.match(event) for event in events
        ]
    return system


def probe_system(topology, policy=TargetPolicy.SMALLEST_DEGREE, **kwargs):
    system = SummaryPubSub(
        topology, popularity_schema(), propagation_policy=policy, **kwargs
    )
    sids = {}
    for broker_id in topology.brokers:
        sids[broker_id] = system.subscribe(broker_id, probe_subscription(broker_id))
    system.run_propagation_period()
    return system, sids


class TestPaperExample3:
    """Section 4.3: an event matching paper brokers 4, 8, 13 enters at
    broker 1 (nodes 3, 7, 12; entry node 0)."""

    def test_deliveries_and_routing(self, figure7_tree):
        system, sids = probe_system(figure7_tree)
        event = popularity_event({3, 7, 12})
        outcome = system.publish(0, event)
        assert outcome.matched_brokers == {3, 7, 12}
        delivered = {(d.broker, d.sid) for d in outcome.deliveries}
        assert delivered == {(3, sids[3]), (7, sids[7]), (12, sids[12])}

    def test_first_forward_is_broker5(self, figure7_tree):
        """Broker 1 forwards to the highest-degree broker: paper broker 5."""
        system, _ = probe_system(figure7_tree)
        hops = []
        original = system.router._next_router

        def spy(brocli, origin, event):
            choice = original(brocli, origin, event)
            hops.append(choice)
            return choice

        system.router._next_router = spy
        system.publish(0, popularity_event({3, 7, 12}))
        assert hops[0] == 4  # paper broker 5
        # ... then brokers 8 and 11 (nodes 7 and 10), per the example.
        assert hops[1:] == [7, 10]

    def test_example3_hop_budget(self, figure7_tree):
        """The example's trace costs exactly 5 hops: BROCLI forwards 1->5,
        5->8, 8->11, plus notifications 5->4 and 11->13; broker 8's own
        match is delivered locally."""
        system, _ = probe_system(figure7_tree)
        outcome = system.publish(0, popularity_event({3, 7, 12}))
        assert outcome.hops == 5


class TestCorrectness:
    @pytest.mark.parametrize("policy", list(TargetPolicy))
    def test_every_matched_broker_delivered_exactly_once(self, policy):
        topology = cable_wireless_24()
        system, sids = probe_system(topology, policy)
        matched = {1, 5, 9, 17, 23}
        outcome = system.publish(0, popularity_event(matched))
        delivered = [d.sid for d in outcome.deliveries]
        assert set(delivered) == {sids[b] for b in matched}
        assert len(delivered) == len(matched)  # no duplicates

    def test_no_match_event_still_terminates(self, figure7_tree):
        system, _ = probe_system(figure7_tree)
        outcome = system.publish(0, popularity_event(set()))
        assert outcome.deliveries == []
        assert outcome.hops > 0  # the search still covered all brokers

    def test_publisher_is_its_own_first_router(self, figure7_tree):
        """A match owned by the publisher is delivered locally (no hop)."""
        system, sids = probe_system(figure7_tree)
        outcome = system.publish(3, popularity_event({3}))
        assert {(d.broker, d.sid) for d in outcome.deliveries} == {(3, sids[3])}

    def test_every_broker_examined(self, figure7_tree):
        """BROCLI only completes once every broker's summary was consulted."""
        system, _ = probe_system(figure7_tree)
        before = {b: br.events_examined for b, br in system.brokers.items()}
        system.publish(0, popularity_event({12}))
        examined = {
            b
            for b, br in system.brokers.items()
            if br.events_examined > before[b]
        }
        # The examining brokers' merged knowledge must cover all 13.
        covered = set()
        for broker_id in examined:
            covered |= system.brokers[broker_id].merged_brokers
        assert covered == set(range(13))

    def test_hops_scale_with_popularity(self):
        topology = cable_wireless_24()
        system, _ = probe_system(topology, TargetPolicy.HIGHEST_DEGREE)
        small = system.publish(0, popularity_event({1, 2}))
        big = system.publish(0, popularity_event(set(range(1, 20))))
        assert big.hops > small.hops


class TestCompiledMatcherParity:
    """The compiled engine must be routing-invisible: identical deliveries,
    identical BROCLI forwarding chains, identical hop/message costs to a
    system whose brokers walk the reference summary."""

    @staticmethod
    def _spy_forwards(system):
        hops = []
        original = system.router._next_router

        def spy(brocli, origin, event):
            choice = original(brocli, origin, event)
            hops.append((origin, choice))
            return choice

        system.router._next_router = spy
        return hops

    def test_cable_wireless_24_same_forwarding_decisions(self):
        """The fig10 scenario on the 24-node C&W backbone: every publish
        makes the exact same event->broker forwarding decisions under the
        compiled matcher as under the reference walk."""
        reference, ref_sids = probe_system(cable_wireless_24())
        walk_reference(reference)
        compiled, cmp_sids = probe_system(cable_wireless_24())
        assert ref_sids == cmp_sids
        ref_forwards = self._spy_forwards(reference)
        cmp_forwards = self._spy_forwards(compiled)

        matched_sets = draw_matched_sets(24, popularity=0.25, count=12, seed=7)
        matched_sets += draw_matched_sets(24, popularity=0.75, count=6, seed=8)
        for publisher, matched in enumerate(matched_sets):
            event = popularity_event(matched)
            ref_out = reference.publish(publisher % 24, event)
            cmp_out = compiled.publish(publisher % 24, event)
            ref_deliveries = {(d.broker, d.sid) for d in ref_out.deliveries}
            cmp_deliveries = {(d.broker, d.sid) for d in cmp_out.deliveries}
            assert cmp_deliveries == ref_deliveries
            assert cmp_deliveries == {(b, ref_sids[b]) for b in matched}
            assert cmp_out.hops == ref_out.hops
            assert cmp_out.messages == ref_out.messages
            assert cmp_forwards == ref_forwards  # identical BROCLI chains

    def test_compiled_path_is_actually_exercised(self):
        system, sids = probe_system(cable_wireless_24())
        outcome = system.publish(0, popularity_event({5, 9}))
        assert outcome.matched_brokers == {5, 9}
        exercised = [
            broker
            for broker in system.brokers.values()
            if broker._compiled is not None and broker._compiled.generation >= 0
        ]
        assert exercised, "no broker built a compiled snapshot"
        # ... and the oracle side of these parity tests really bypasses it.
        reference = walk_reference(probe_system(cable_wireless_24())[0])
        assert reference.publish(0, popularity_event({5, 9})).matched_brokers == {5, 9}
        assert all(broker._compiled is None for broker in reference.brokers.values())

    def test_compiled_survives_churn_and_new_periods(self, figure7_tree):
        """Unsubscribe + a fresh propagation period mutate kept summaries;
        compiled snapshots must keep agreeing with a reference system run
        through the exact same script."""
        reference, ref_sids = probe_system(figure7_tree)
        walk_reference(reference)
        compiled, cmp_sids = probe_system(figure7_tree)
        event = popularity_event({3, 7, 12})
        assert (
            {(d.broker, d.sid) for d in compiled.publish(0, event).deliveries}
            == {(d.broker, d.sid) for d in reference.publish(0, event).deliveries}
        )
        for system, sids in ((reference, ref_sids), (compiled, cmp_sids)):
            system.unsubscribe(7, sids[7])
            system.subscribe(5, probe_subscription(5))
            system.run_propagation_period()
        for matched in ({3, 7, 12}, {5}, set(), {12}):
            event = popularity_event(matched)
            ref_out = reference.publish(1, event)
            cmp_out = compiled.publish(1, event)
            assert (
                {(d.broker, d.sid) for d in cmp_out.deliveries}
                == {(d.broker, d.sid) for d in ref_out.deliveries}
            )
            assert cmp_out.hops == ref_out.hops


class TestPublishIdEpochs:
    """Publish-id namespacing across router generations (regression: a
    re-created router restarted its sequence at 0 and its ids collided
    with ids long-lived brokers still remembered, so fresh events were
    silently dropped as duplicates)."""

    def test_new_router_over_same_brokers_still_delivers(self, figure7_tree):
        from repro.broker.routing import EventRouter

        system, sids = probe_system(figure7_tree)
        first = system.publish(0, popularity_event({3, 7}))
        assert {d.sid for d in first.deliveries} == {sids[3], sids[7]}

        # A router restart over the SAME brokers: their dedup tables still
        # hold the first generation's ids.
        old_epoch = system.router.epoch
        system.router = EventRouter(system.network, system.brokers)
        assert system.router.epoch != old_epoch
        second = system.publish(0, popularity_event({3, 7}))
        assert {d.sid for d in second.deliveries} == {sids[3], sids[7]}
        suppressed = sum(
            broker.duplicates_suppressed for broker in system.brokers.values()
        )
        assert suppressed == 0  # nothing was mistaken for a duplicate

    def test_ids_are_constant_width(self, figure7_tree):
        """The marker-bit layout keeps every id exactly 49 bits, so the
        varint wire encoding (and hence byte accounting) is identical
        across epochs — crash recovery routes byte-for-byte the same."""
        from repro.broker.routing import EventRouter

        system, _ = probe_system(figure7_tree)
        widths = set()
        for epoch in (1, 77, 255, 256):  # 256 wraps into the 8-bit field
            router = EventRouter(system.network, system.brokers, epoch=epoch)
            for broker_id in (0, 12):
                for _ in range(3):
                    widths.add(router.next_publish_id(broker_id).bit_length())
        assert widths == {49}

    def test_distinct_epochs_never_collide(self, figure7_tree):
        from repro.broker.routing import EventRouter

        system, _ = probe_system(figure7_tree)
        a = EventRouter(system.network, system.brokers)
        b = EventRouter(system.network, system.brokers)
        ids_a = {a.next_publish_id(0) for _ in range(100)}
        ids_b = {b.next_publish_id(0) for _ in range(100)}
        assert not ids_a & ids_b

    def test_broker_id_must_fit_layout(self, figure7_tree):
        system, _ = probe_system(figure7_tree)
        with pytest.raises(ValueError):
            system.router.next_publish_id(1 << 16)


class TestAcrossTopologies:
    @pytest.mark.parametrize(
        "topology_factory",
        [
            lambda: Topology.line(6),
            lambda: Topology.star(6),
            lambda: Topology.random_tree(10, seed=5),
            lambda: Topology.random_connected(10, 4, seed=5),
            cable_wireless_24,
        ],
    )
    def test_delivery_correct_everywhere(self, topology_factory):
        topology = topology_factory()
        system, sids = probe_system(topology)
        matched = set(list(topology.brokers)[:: max(1, topology.num_brokers // 3)])
        for publisher in (0, topology.num_brokers - 1):
            outcome = system.publish(publisher, popularity_event(matched))
            assert outcome.matched_brokers == matched
