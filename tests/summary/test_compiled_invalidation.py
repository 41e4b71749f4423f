"""Generation-counter invalidation of compiled summary snapshots.

A compiled snapshot must never serve stale results: every mutation of the
underlying :class:`BrokerSummary` (``add``/``remove``/``merge``) bumps its
generation counter, and the snapshot notices on the next match (single
or batched) and lazily recompiles.
"""

import pytest

from repro.model.attributes import AttributeSpec
from repro.model.constraints import Constraint, Operator
from repro.model.events import Event
from repro.model.ids import SubscriptionId
from repro.model.schema import Schema
from repro.model.subscriptions import Subscription
from repro.model.types import AttributeType
from repro.summary import BrokerSummary, CompiledMatcher, Precision, match_event


@pytest.fixture
def schema():
    return Schema(
        [
            AttributeSpec("price", AttributeType.FLOAT),
            AttributeSpec("symbol", AttributeType.STRING),
        ]
    )


def _price_sub(low):
    return Subscription([Constraint.arithmetic("price", Operator.GT, low)])


def _symbol_sub(value):
    return Subscription(
        [Constraint.string("symbol", Operator.EQ, value)]
    )


def _sid(schema, subscription, local_id, broker=0):
    return SubscriptionId(broker, local_id, schema.mask_of(subscription))


class TestGenerationCounter:
    def test_add_remove_merge_bump_generation(self, schema):
        summary = BrokerSummary(schema)
        assert summary.generation == 0
        sub = _price_sub(5.0)
        sid = _sid(schema, sub, 0)
        summary.add(sub, sid)
        gen_after_add = summary.generation
        assert gen_after_add > 0

        other = BrokerSummary(schema)
        other.add(_symbol_sub("OTE"), _sid(schema, _symbol_sub("OTE"), 0, broker=1))
        summary.merge(other)
        gen_after_merge = summary.generation
        assert gen_after_merge > gen_after_add

        assert summary.remove(sid)
        assert summary.generation > gen_after_merge

    def test_removing_unknown_id_does_not_bump(self, schema):
        summary = BrokerSummary(schema)
        summary.add(_price_sub(5.0), _sid(schema, _price_sub(5.0), 0))
        generation = summary.generation
        assert not summary.remove(SubscriptionId(3, 9, 0b1))
        assert summary.generation == generation

    def test_merging_empty_summary_does_not_bump(self, schema):
        summary = BrokerSummary(schema)
        summary.add(_price_sub(5.0), _sid(schema, _price_sub(5.0), 0))
        compiled = CompiledMatcher(summary)
        compiled.refresh()
        generation = summary.generation
        summary.merge(BrokerSummary(schema))
        assert summary.generation == generation
        assert not compiled.is_stale


class TestStaleSnapshots:
    def test_stale_after_add_is_rebuilt_before_serving(self, schema):
        summary = BrokerSummary(schema)
        compiled = CompiledMatcher(summary)
        event = Event.of(price=10.0)
        assert compiled.match(event) == set()

        sub = _price_sub(5.0)
        sid = _sid(schema, sub, 0)
        summary.add(sub, sid)
        assert compiled.is_stale
        assert compiled.match(event) == {sid}  # rebuilt, never served stale
        assert not compiled.is_stale
        assert compiled.generation == summary.generation

    def test_stale_after_remove_is_rebuilt_before_serving(self, schema):
        summary = BrokerSummary(schema)
        sub = _price_sub(5.0)
        sid = _sid(schema, sub, 0)
        summary.add(sub, sid)
        compiled = CompiledMatcher(summary)
        event = Event.of(price=10.0)
        assert compiled.match(event) == {sid}

        summary.remove(sid)
        assert compiled.is_stale
        assert compiled.match(event) == set()

    def test_stale_after_merge_is_rebuilt_before_serving(self, schema):
        summary = BrokerSummary(schema)
        compiled = CompiledMatcher(summary)
        event = Event.of(symbol="OTE")
        assert compiled.match(event) == set()

        other = BrokerSummary(schema)
        other_sub = _symbol_sub("OTE")
        other_sid = _sid(schema, other_sub, 0, broker=1)
        other.add(other_sub, other_sid)
        summary.merge(other)
        assert compiled.is_stale
        assert compiled.match(event) == {other_sid}

    def test_refresh_reports_rebuilds(self, schema):
        summary = BrokerSummary(schema)
        compiled = CompiledMatcher(summary)
        assert compiled.refresh()  # first compile counts as a rebuild
        assert not compiled.refresh()  # nothing changed
        summary.add(_price_sub(1.0), _sid(schema, _price_sub(1.0), 0))
        assert compiled.refresh()

    def test_every_precision_stays_in_lockstep(self, schema):
        for precision in Precision:
            summary = BrokerSummary(schema, precision)
            compiled = CompiledMatcher(summary)
            event = Event.of(price=7.5, symbol="OTE")
            subs = [_price_sub(5.0), _symbol_sub("OTE"), _price_sub(9.0)]
            sids = [_sid(schema, sub, i) for i, sub in enumerate(subs)]
            for sub, sid in zip(subs, sids):
                summary.add(sub, sid)
                assert compiled.match(event) == match_event(summary, event)
            for sid in sids:
                summary.remove(sid)
                assert compiled.match(event) == match_event(summary, event)


class TestMatchManyCache:
    def test_cache_entries_evicted_on_rebuild(self, schema):
        summary = BrokerSummary(schema)
        sub = _price_sub(5.0)
        sid = _sid(schema, sub, 0)
        summary.add(sub, sid)
        compiled = CompiledMatcher(summary)
        event = Event.of(price=10.0)

        assert compiled.match_many([event, event]) == [{sid}, {sid}]

        summary.remove(sid)  # invalidates: the next batch sees the removal
        assert compiled.match_many([event]) == [set()]

    def test_cache_hits_do_not_leak_mutable_state(self, schema):
        summary = BrokerSummary(schema)
        sub = _price_sub(5.0)
        sid = _sid(schema, sub, 0)
        summary.add(sub, sid)
        compiled = CompiledMatcher(summary)
        event = Event.of(price=10.0)
        first, second = compiled.match_many([event, event])
        first.clear()  # each result is its own set
        assert second == {sid}
        assert compiled.match_many([event]) == [{sid}]


class TestEmptySummary:
    def test_compiling_empty_summary_matches_nothing(self, schema):
        summary = BrokerSummary(schema)
        compiled = CompiledMatcher(summary)
        assert compiled.match(Event.of(price=1.0, symbol="OTE")) == set()
        assert compiled.match(Event.of()) == set()
        stats = compiled.stats()
        assert stats.slots == 0
        assert stats.arithmetic_attributes == 0
        assert stats.string_attributes == 0

    def test_summary_emptied_by_removal_matches_nothing(self, schema):
        summary = BrokerSummary(schema)
        sub = _price_sub(5.0)
        sid = _sid(schema, sub, 0)
        summary.add(sub, sid)
        compiled = CompiledMatcher(summary)
        assert compiled.match(Event.of(price=10.0)) == {sid}
        summary.remove(sid)
        assert summary.is_empty
        assert compiled.match(Event.of(price=10.0)) == set()
