"""Algorithm 2 — propagation over the figure-7 tree and other overlays."""

import pytest

from repro.broker.propagation import TargetPolicy
from repro.broker.system import SummaryPubSub
from repro.model import parse_subscription, stock_schema
from repro.network import Topology, cable_wireless_24, paper_example_tree


def build_system(topology, policy=TargetPolicy.SMALLEST_DEGREE):
    schema = stock_schema()
    system = SummaryPubSub(topology, schema, propagation_policy=policy)
    for broker_id in topology.brokers:
        system.subscribe(
            broker_id, parse_subscription(schema, f"price > {broker_id}.5")
        )
    return system


class TestFigure7Example:
    """The worked example of section 4.2, with the paper's smallest-degree
    preference (node k = paper broker k+1)."""

    @pytest.fixture
    def system(self, figure7_tree):
        system = build_system(figure7_tree, TargetPolicy.SMALLEST_DEGREE)
        system.run_propagation_period()
        return system

    def test_broker5_knows_brokers_1_to_6(self, system):
        """'broker 5 for example will have knowledge of the summaries of
        brokers 1 to 6'."""
        assert system.brokers[4].merged_brokers == {0, 1, 2, 3, 4, 5}

    def test_broker8_merges_7_9_10(self, system):
        """'Broker 8 will merge its own summary with the summaries received
        from its neighbors (i.e., the summaries of brokers 7, 9 and 10).'"""
        assert system.brokers[7].merged_brokers == {6, 7, 8, 9}

    def test_broker11_merges_12_13(self, system):
        """'In the 3rd iteration, brokers 8 and 11 merge the received
        summaries' — broker 11 got brokers 12 and 13 (broker 10's summary
        went to broker 8 on the smallest-id tie-break)."""
        assert system.brokers[10].merged_brokers == {10, 11, 12}

    def test_every_broker_covered_by_some_summary(self, system):
        covered = set()
        for broker in system.brokers.values():
            covered |= broker.merged_brokers
        assert covered == set(range(13))

    def test_hops_below_broker_count(self, system):
        assert system.propagation_metrics.hops < 13

    def test_leaves_send_in_iteration_one(self, system):
        """Brokers 1,3,4,6,9,12,13 (leaves) each transmitted exactly once."""
        sent = system.propagation_metrics.per_broker_sent
        for leaf in (0, 2, 3, 5, 8, 11, 12):
            assert sent.get(leaf, 0) == 1

    def test_max_degree_broker_never_sends(self, system):
        assert system.propagation_metrics.per_broker_sent.get(4, 0) == 0


@pytest.mark.parametrize("policy", list(TargetPolicy))
class TestInvariants:
    def test_each_broker_sends_at_most_once(self, policy):
        for topology in (paper_example_tree(), cable_wireless_24(), Topology.line(8)):
            system = build_system(topology, policy)
            system.run_propagation_period()
            for broker, count in system.propagation_metrics.per_broker_sent.items():
                assert count <= 1, f"broker {broker} sent {count} times"

    def test_hops_always_below_n(self, policy):
        """The paper's headline: propagation needs < n hops."""
        for topology in (paper_example_tree(), cable_wireless_24(),
                         Topology.star(10), Topology.random_tree(16, seed=3)):
            system = build_system(topology, policy)
            system.run_propagation_period()
            assert system.propagation_metrics.hops < topology.num_brokers

    def test_union_of_knowledge_is_complete(self, policy):
        for topology in (cable_wireless_24(), Topology.random_connected(12, 4, seed=2)):
            system = build_system(topology, policy)
            system.run_propagation_period()
            covered = set()
            for broker in system.brokers.values():
                covered |= broker.merged_brokers
            assert covered == set(topology.brokers)

    def test_sends_go_to_equal_or_higher_degree(self, policy):
        topology = cable_wireless_24()
        system = build_system(topology, policy)
        # Inspect targets by intercepting metrics per broker pair.
        targets = {}
        original_send = system.network.send

        def spy(src, dst, message):
            targets.setdefault(src, []).append(dst)
            original_send(src, dst, message)

        system.network.send = spy
        system.run_propagation_period()
        for src, dsts in targets.items():
            for dst in dsts:
                assert topology.degree(dst) >= topology.degree(src)

    def test_one_broker_overlay_acts_and_folds_its_batch(self, policy):
        """Degree 0 (the only broker of its overlay) still acts: the act is
        what folds the pending batch into the kept summary."""
        system = build_system(Topology.line(1), policy)
        system.run_propagation_period()
        broker = system.brokers[0]
        assert broker.pending == []
        assert broker.kept_summary.all_ids() == set(broker.store.ids())
        assert system.propagation_metrics.hops == 0


class TestPolicies:
    def test_highest_policy_concentrates_knowledge(self):
        """HIGHEST_DEGREE should leave at most a handful of knowledge
        clusters on the backbone; SMALLEST_DEGREE fragments more."""
        def clusters(policy):
            system = build_system(cable_wireless_24(), policy)
            system.run_propagation_period()
            best = {}
            for broker in system.brokers.values():
                key = frozenset(broker.merged_brokers)
                best[key] = True
            # count maximal knowledge sets (not strictly contained in another)
            keys = list(best)
            return sum(
                1
                for key in keys
                if not any(key < other for other in keys)
            )

        assert clusters(TargetPolicy.HIGHEST_DEGREE) <= clusters(
            TargetPolicy.SMALLEST_DEGREE
        )

    def test_multi_period_accumulates(self, figure7_tree):
        schema = stock_schema()
        # suppress_covered off: "price > 2" is covered by "price > 1" and
        # would (correctly) never propagate, but this test is about
        # multi-period delta accumulation, not suppression.
        system = SummaryPubSub(figure7_tree, schema, suppress_covered=False)
        system.subscribe(0, parse_subscription(schema, "price > 1"))
        system.run_propagation_period()
        system.subscribe(0, parse_subscription(schema, "price > 2"))
        system.run_propagation_period()
        # Broker 1 (paper broker 2) received broker 0's deltas both periods.
        kept = system.brokers[1].kept_summary
        assert len(kept.all_ids()) == 2

    def test_empty_period_sends_empty_summaries(self, figure7_tree):
        system = SummaryPubSub(figure7_tree, stock_schema())
        snapshot = system.run_propagation_period()
        # Messages still flow (Merged_Brokers must propagate) but are small.
        assert snapshot["hops"] < 13


class TestMaintenanceReset:
    """``reset_merged_state`` (full-refresh support) must also close the
    open period (regression: a refresh started while a period was in
    flight let ``finish_period`` fold the pre-reset adds — stale remote
    knowledge — back into the freshly rebuilt summary)."""

    def _brokers(self):
        from repro.broker.broker import SummaryBroker
        from repro.summary.precision import Precision

        schema = stock_schema()
        a = SummaryBroker(0, schema, Precision.COARSE)
        b = SummaryBroker(1, schema, Precision.COARSE)
        return schema, a, b

    def _frame_of(self, b):
        """``b``'s period adds once it has folded its pending batch."""
        b.begin_period()
        b.act_period(None)
        return b.period.adds

    def test_reset_clears_period_scratch(self):
        schema, a, b = self._brokers()
        b.subscribe(parse_subscription(schema, "price > 1"))
        a.begin_period()
        a.absorb_summary(1, self._frame_of(b), {1})
        assert a.period.brokers == {0, 1}
        assert a.period.adds.owner_brokers() == {1}

        a.reset_merged_state()
        assert a.period is None

    def test_finish_after_reset_is_a_noop(self):
        schema, a, b = self._brokers()
        b.subscribe(parse_subscription(schema, "price > 2"))
        a.begin_period()
        a.absorb_summary(1, self._frame_of(b), {1})
        a.reset_merged_state()
        a.finish_period()
        # Broker 1's stale adds did NOT leak into the rebuilt summary.
        assert a.merged_brokers == {0}
        assert not a.kept_summary.all_ids()

    def test_reset_keeps_local_subscriptions(self):
        schema, a, b = self._brokers()
        sid = a.subscribe(parse_subscription(schema, "price > 3"))
        a.begin_period()
        a.act_period(None)
        a.finish_period()
        b.subscribe(parse_subscription(schema, "price > 1"))
        a.begin_period()
        a.absorb_summary(1, self._frame_of(b), {1})
        a.reset_merged_state()
        assert sid in a.kept_summary.all_ids()
        assert a.merged_brokers == {0}
