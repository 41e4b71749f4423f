"""Delta-mode propagation: generation chaining, removals, fallback.

The refresh-then-late-delta regression lives here (satellite bugfix): a
delta frame that was built *before* a full refresh but applied *after* it
carries a stale base generation and must be rejected — silently merging it
would resurrect the pre-refresh worldview the refresh just replaced.  The
simulator's refreshes are synchronous and global, so the interleaving is
constructed explicitly against the engine/broker API (in the live runtime
it arises naturally from frames in flight across a restart).
"""

import pytest

from repro.broker.broker import BROKEN_LINK, SummaryBroker
from repro.broker.system import SummaryPubSub
from repro.model import parse_subscription
from repro.network import Topology
from repro.obs.audit import SummaryAuditor
from repro.summary import BrokerSummary, Precision
from repro.wire.messages import (
    SummaryDeltaMessage,
    SummaryMessage,
    SummaryRequestMessage,
)


def delta_system(schema, n=3, **kwargs):
    kwargs.setdefault("propagation_mode", "delta")
    kwargs.setdefault("suppress_covered", False)
    return SummaryPubSub(Topology.line(n), schema, **kwargs)


class TestDeltaPeriods:
    def test_adds_propagate_like_full_mode(self, schema):
        system = delta_system(schema)
        sid = system.subscribe(0, parse_subscription(schema, "price < 5"))
        system.run_propagation_period()
        assert any(
            sid in system.brokers[b].kept_summary.all_ids() for b in (1, 2)
        )

    def test_merged_brokers_match_full_mode(self, schema):
        def merged(mode):
            system = SummaryPubSub(
                Topology.line(4), schema,
                propagation_mode=mode, suppress_covered=False,
            )
            for broker_id in range(4):
                system.subscribe(
                    broker_id,
                    parse_subscription(schema, f"price < {broker_id + 1}"),
                )
            system.run_propagation_period()
            system.run_propagation_period()
            return {
                b: frozenset(system.brokers[b].merged_brokers)
                for b in system.brokers
            }

        assert merged("delta") == merged("full")

    def test_removals_propagate_without_refresh(self, schema):
        system = delta_system(schema)
        sid = system.subscribe(0, parse_subscription(schema, "price < 5"))
        system.run_propagation_period()
        holders = [
            b for b in (1, 2)
            if sid in system.brokers[b].kept_summary.all_ids()
        ]
        assert holders
        assert system.unsubscribe(0, sid)
        system.run_propagation_period()
        for b in holders:
            assert sid not in system.brokers[b].kept_summary.all_ids()

    def test_generations_advance_per_link(self, schema):
        system = delta_system(schema)
        system.subscribe(0, parse_subscription(schema, "price < 5"))
        system.run_propagation_period()
        system.run_propagation_period()
        sender = next(
            b for b in system.brokers.values() if b.link_generations_out
        )
        assert max(sender.link_generations_out.values()) >= 2
        assert sum(b.fallback_requests for b in system.brokers.values()) == 0


class TestAbsorbDelta:
    def make_broker(self, schema):
        broker = SummaryBroker(0, schema, suppress_covered=False)
        broker.begin_period()
        return broker

    def adds(self, schema, sid_source):
        summary = BrokerSummary(schema, Precision.COARSE)
        sid = sid_source.subscribe(parse_subscription(schema, "price < 5"))
        summary.add(sid_source.store.get(sid), sid)
        return summary, sid

    def test_chained_delta_accepted(self, schema):
        broker = self.make_broker(schema)
        source = SummaryBroker(1, schema, suppress_covered=False)
        adds, sid = self.adds(schema, source)
        assert broker.absorb_delta(1, adds, set(), {1}, 0, 1)
        assert broker.link_generations_in[1] == 1
        assert sid in broker.period.adds.all_ids()
        assert 1 in broker.period.brokers

    def test_stale_base_rejected_without_state_change(self, schema):
        broker = self.make_broker(schema)
        source = SummaryBroker(1, schema, suppress_covered=False)
        adds, sid = self.adds(schema, source)
        assert not broker.absorb_delta(1, adds, {sid}, {1}, 3, 4)
        assert broker.link_generations_in.get(1, 0) == BROKEN_LINK
        assert sid not in broker.period.adds.all_ids()
        assert not broker.period.removed
        assert broker.period.brokers == {0}

    def test_between_periods_rejected(self, schema):
        broker = SummaryBroker(0, schema, suppress_covered=False)
        source = SummaryBroker(1, schema, suppress_covered=False)
        adds, _sid = self.adds(schema, source)
        assert broker.period is None
        assert not broker.absorb_delta(1, adds, set(), {1}, 0, 1)


class TestOwnIdsEchoedBack:
    """Equal-degree neighbours send to each other, so a peer's frame can
    carry a broker's own ids back, possibly after they died there.  What a
    broker summarizes of itself comes from its own store only: a dead own
    id stays out of both the period and the kept summary."""

    def echo(self, schema):
        """Broker 0 after shipping and then unsubscribing an id, plus a
        peer frame holding that id and one of broker 1's."""
        broker = SummaryBroker(0, schema, suppress_covered=False)
        peer = SummaryBroker(1, schema, suppress_covered=False)
        subscription = parse_subscription(schema, "price < 5")
        own = broker.subscribe(subscription)
        broker.begin_period()
        assert broker.act_period(1) is not None
        broker.finish_period()
        assert broker.unsubscribe(own)
        foreign = peer.subscribe(subscription)
        frame = BrokerSummary(schema, Precision.COARSE)
        frame.add(subscription, own)
        frame.add(subscription, foreign)
        return broker, frame, own, foreign

    def test_delta_echo_keeps_a_dead_own_id_out(self, schema):
        broker, frame, own, foreign = self.echo(schema)
        broker.begin_period()
        assert broker.absorb_delta(1, frame, set(), {0, 1}, 0, 1)
        assert broker.period.adds.all_ids() == {foreign}
        broker.finish_period()
        assert broker.kept_summary.all_ids() == {foreign}
        assert own in frame.all_ids()  # the received frame is not mutated
        SummaryAuditor(schema).assert_clean(broker)

    @pytest.mark.parametrize("in_period", [True, False])
    def test_summary_echo_keeps_a_dead_own_id_out(self, schema, in_period):
        broker, frame, own, foreign = self.echo(schema)
        if in_period:
            broker.begin_period()
        broker.absorb_summary(1, frame, {0, 1})
        broker.finish_period()
        assert broker.kept_summary.all_ids() == {foreign}
        assert broker.merged_brokers == {0, 1}
        SummaryAuditor(schema).assert_clean(broker)


class TestRefreshThenLateDelta:
    """The refresh regression: refresh invalidates in-flight deltas.

    Frames are injected on ``line3``'s 0 -> 1 link: the leaf 0 sends to
    the hub 1 every period, so that link carries broker 0's knowledge and
    a resync reply over it has something to hand back."""

    def stale_delta(self, schema, src_broker: SummaryBroker, generation: int):
        """A delta from ``src_broker`` chained on a generation the receiver
        never saw, carrying an id ``src_broker`` has only pending."""
        summary = BrokerSummary(schema, Precision.COARSE)
        sid = src_broker.subscribe(parse_subscription(schema, "volume > 9"))
        summary.add(src_broker.store.get(sid), sid)
        return (
            SummaryDeltaMessage(
                adds=summary,
                removed=frozenset(),
                merged_brokers=frozenset({src_broker.broker_id}),
                base_generation=generation - 1,
                generation=generation,
            ),
            sid,
        )

    def test_late_delta_after_refresh_is_rejected(self, schema):
        system = delta_system(schema)
        system.subscribe(0, parse_subscription(schema, "price < 5"))
        system.run_propagation_period()
        system.run_propagation_period()  # generation chains now >= 1
        system.run_full_refresh()  # the refresh resets every chain...
        # ...so a frame built against the pre-refresh chain is stale.
        message, sid = self.stale_delta(schema, system.brokers[0], generation=9)
        target = system.brokers[1]
        target.begin_period()
        before_ids = set(target.period.adds.all_ids())
        requests_before = target.fallback_requests
        reply = target.receive_period_frame(0, message)
        # Rejected: nothing merged, a full-summary request goes back instead.
        assert isinstance(reply, SummaryRequestMessage)
        assert reply.generation == 9
        assert set(target.period.adds.all_ids()) == before_ids
        assert sid not in target.period.adds.all_ids()
        assert target.fallback_requests == requests_before + 1
        target.finish_period()

    def test_fallback_request_yields_full_summary_resync(self, schema):
        system = delta_system(schema)
        kept_sid = system.subscribe(0, parse_subscription(schema, "price < 5"))
        system.run_propagation_period()
        system.run_full_refresh()
        message, stale_sid = self.stale_delta(schema, system.brokers[0], generation=7)
        # Drive the whole reject -> request -> reply chain through the
        # simulator network so the resync lands inside a real period.
        target = system.brokers[1]
        for broker in system.brokers.values():
            broker.begin_period()
        system.network.send(0, 1, message)
        while system.network.has_pending:
            system.network.flush_iteration()
        assert target.fallback_requests == 1
        assert system.brokers[0].fallback_replies == 1
        # The reply restarted broker 0's chain towards broker 1, at both ends.
        assert system.brokers[0].link_generations_out[1] == 0
        assert target.link_generations_in[0] == 0
        # The resync carried broker 0's ids into the hand-opened period
        # (its Merged_Brokers gained 0), and the stale frame's content
        # never leaked in.
        assert 0 in target.period.brokers
        assert target.period.adds.all_ids() == {kept_sid}
        for broker in system.brokers.values():
            broker.finish_period()
        assert stale_sid not in target.kept_summary.all_ids()

    def test_request_between_periods_ships_kept_summary(self, schema):
        system = delta_system(schema)
        sid = system.subscribe(0, parse_subscription(schema, "price < 5"))
        system.run_propagation_period()
        sender = system.brokers[0]
        assert sender.period is None  # between periods
        reply = sender.receive_period_frame(1, SummaryRequestMessage(generation=3))
        assert isinstance(reply, SummaryMessage)
        assert sid in reply.summary.all_ids()
        assert reply.merged_brokers == {0}
