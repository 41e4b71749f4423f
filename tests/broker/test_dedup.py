"""Publish-id de-duplication at the broker layer."""

import pytest

from repro.broker.broker import SummaryBroker
from repro.model import Event, parse_subscription, stock_schema
from repro.summary.precision import Precision


@pytest.fixture
def broker(schema):
    broker = SummaryBroker(0, schema, Precision.COARSE)
    subscription = parse_subscription(schema, "price > 1")
    sid = broker.subscribe(subscription)
    broker.begin_period()
    broker.act_period(None)
    broker.finish_period()
    return broker


class TestRoutingDedup:
    def test_first_routing_true_then_false(self, broker):
        assert broker.first_routing_of(77)
        assert not broker.first_routing_of(77)
        assert broker.duplicates_suppressed == 1

    def test_distinct_publishes_independent(self, broker):
        assert broker.first_routing_of(1)
        assert broker.first_routing_of(2)
        assert broker.duplicates_suppressed == 0

    def test_zero_id_never_dedups(self, broker):
        assert broker.first_routing_of(0)
        assert broker.first_routing_of(0)
        assert broker.duplicates_suppressed == 0

    def test_lru_capacity_bounds_memory(self, broker):
        broker._dedup_capacity = 8
        for publish_id in range(1, 20):
            broker.first_routing_of(publish_id)
        assert len(broker._routed_publishes) <= 8
        # An ancient id re-appears as "first" after eviction (bounded
        # memory trades perfect dedup for old traffic, by design).
        assert broker.first_routing_of(1)

    def test_reseen_id_survives_fresh_churn(self, schema):
        """The FIFO->LRU regression: a duplicate touch must move the id to
        the MRU end, so subsequent fresh publishes evict *colder* entries
        first.  Under the old FIFO table the re-seen id aged out on insert
        order and a third copy sneaked through as 'first'."""
        broker = SummaryBroker(0, schema, Precision.COARSE, dedup_capacity=8)
        assert broker.first_routing_of(100)
        for publish_id in range(1, 8):  # capacity-1 fresh publishes
            assert broker.first_routing_of(publish_id)
        # Table is full; 100 is the coldest entry. A retransmission of 100
        # arrives: still suppressed, and the hit refreshes its recency.
        assert not broker.first_routing_of(100)
        # Two more fresh ids evict the now-coldest entries (1, then 2)...
        assert broker.first_routing_of(8)
        assert broker.first_routing_of(9)
        # ...but NOT the re-seen hot id: a straggler duplicate of 100 is
        # still caught.  FIFO would have evicted 100 at id 8's insert.
        assert not broker.first_routing_of(100)
        assert 1 not in broker._routed_publishes
        assert broker.duplicates_suppressed == 2

    def test_delivery_table_is_lru_too(self, broker):
        """The delivery-side table got the same touch-on-hit fix."""
        broker._dedup_capacity = 4
        event = Event.of(price=5.0)
        sid = next(iter(broker.store.ids()))
        broker.deliver({sid}, event, publish_id=100)
        for publish_id in range(1, 4):
            broker.deliver({sid}, event, publish_id=publish_id)
        assert broker.deliver({sid}, event, publish_id=100) == set()  # touch
        broker.deliver({sid}, event, publish_id=4)  # evicts 1, not 100
        assert broker.deliver({sid}, event, publish_id=100) == set()
        assert 100 in broker._delivered_publishes


class TestCapacityConfiguration:
    def test_constructor_parameter(self, schema):
        broker = SummaryBroker(0, schema, Precision.COARSE, dedup_capacity=2)
        assert broker._dedup_capacity == 2
        for publish_id in (1, 2, 3):
            broker.first_routing_of(publish_id)
        assert len(broker._routed_publishes) == 2

    def test_capacity_must_be_positive(self, schema):
        with pytest.raises(ValueError):
            SummaryBroker(0, schema, Precision.COARSE, dedup_capacity=0)

    def test_system_plumbs_capacity_to_brokers(self, schema):
        from repro.broker.system import SummaryPubSub
        from repro.network import Topology

        system = SummaryPubSub(Topology.line(3), schema, dedup_capacity=16)
        assert all(
            broker._dedup_capacity == 16 for broker in system.brokers.values()
        )

    def test_clear_dedup_forgets_both_tables(self, broker):
        event = Event.of(price=5.0)
        sid = next(iter(broker.store.ids()))
        broker.first_routing_of(7)
        broker.deliver({sid}, event, publish_id=7)
        broker.clear_dedup()
        assert broker.first_routing_of(7)
        assert broker.deliver({sid}, event, publish_id=7) == {sid}


class TestDeliveryDedup:
    def test_second_delivery_suppressed(self, broker):
        event = Event.of(price=5.0)
        sid = next(iter(broker.store.ids()))
        first = broker.deliver({sid}, event, publish_id=9)
        second = broker.deliver({sid}, event, publish_id=9)
        assert first == {sid}
        assert second == set()
        assert broker.delivered == 1

    def test_same_event_new_publish_delivers_again(self, broker):
        """Two legitimate publishes of identical content both deliver —
        dedup keys on the publish, never the payload."""
        event = Event.of(price=5.0)
        sid = next(iter(broker.store.ids()))
        broker.deliver({sid}, event, publish_id=10)
        broker.deliver({sid}, event, publish_id=11)
        assert broker.delivered == 2

    def test_unidentified_delivery_never_deduped(self, broker):
        event = Event.of(price=5.0)
        sid = next(iter(broker.store.ids()))
        broker.deliver({sid}, event)
        broker.deliver({sid}, event)
        assert broker.delivered == 2
