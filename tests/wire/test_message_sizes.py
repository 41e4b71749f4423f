"""Size-accounting and staleness regressions for the message codec.

The simulator charges every hop ``codec.size(message) x path_length``, so
``size()`` drifting from ``len(encode())`` for *any* kind silently skews
every byte experiment (exhaustive differential below).  And because
SUMMARY / SUMMARY_DELTA frames are built straight from the broker's
*mutable* ``delta_summary``, no encode may ever return pre-mutation bytes
for them.
"""

import pytest

from repro.model import AttributeType, Event, IdCodec, SubscriptionId, parse_subscription, stock_schema
from repro.summary import BrokerSummary, Precision
from repro.wire.codec import ValueWidth, WireCodec
from repro.wire.messages import (
    AckMessage,
    AdvertisementMessage,
    EventMessage,
    HelloMessage,
    MessageCodec,
    MessageKind,
    NotifyMessage,
    PingMessage,
    PongMessage,
    ReliableDataMessage,
    ROLE_PEER,
    SubAckMessage,
    SubscribeMessage,
    SubscriptionBatchMessage,
    SummaryDeltaMessage,
    SummaryMessage,
    SummaryRequestMessage,
    UnsubscribeMessage,
)


@pytest.fixture
def codec():
    schema = stock_schema()
    id_codec = IdCodec(
        num_brokers=8, max_subscriptions=1 << 20, num_attributes=len(schema)
    )
    return MessageCodec(WireCodec(schema, id_codec, ValueWidth.F64))


def build_every_kind(codec):
    """One concrete message per MessageKind (coverage asserted below)."""
    schema = codec.wire.schema
    subscription = parse_subscription(
        schema, "symbol = OTE AND price < 8.70 AND price > 8.30"
    )
    sid = SubscriptionId(broker=3, local_id=7, attr_mask=0b1010)
    event = Event.from_pairs(
        [
            ("symbol", AttributeType.STRING, "OTE"),
            ("price", AttributeType.FLOAT, 8.40),
        ]
    )
    summary = BrokerSummary(schema, Precision.COARSE)
    summary.add(subscription, sid)
    event_msg = EventMessage(event=event, brocli=frozenset({0, 2}), publish_id=9)
    messages = [
        SummaryMessage(summary=summary, merged_brokers=frozenset({1, 3})),
        SummaryDeltaMessage(
            adds=summary,
            removed=frozenset(
                {SubscriptionId(broker=1, local_id=2, attr_mask=0b10)}
            ),
            merged_brokers=frozenset({3, 5}),
            base_generation=4,
            generation=5,
        ),
        SummaryRequestMessage(generation=5),
        SubscriptionBatchMessage(entries=((sid, subscription),)),
        event_msg,
        NotifyMessage(event=event, matched=frozenset({sid}), publish_id=9),
        AdvertisementMessage(entries=((sid, subscription),)),
        AckMessage(transfer_id=44),
        ReliableDataMessage(transfer_id=45, payload=event_msg),
        HelloMessage(role=ROLE_PEER, identity=5),
        SubscribeMessage(request_id=2, subscription=subscription),
        SubAckMessage(request_id=2, sid=sid),
        SubAckMessage(request_id=6, sid=None, error="id space exhausted"),
        UnsubscribeMessage(request_id=3, sid=sid),
        PingMessage(token=17),
        PongMessage(token=17),
    ]
    assert {m.kind for m in messages} == set(MessageKind), "union drifted"
    return messages


class TestSizeMatchesEncode:
    def test_every_kind_size_equals_encoded_length(self, codec):
        """The exhaustive differential: one message per kind, size() vs
        len(encode()) vs a decode round-trip re-encode."""
        for message in build_every_kind(codec):
            encoded = codec.encode(message)
            assert codec.size(message) == len(encoded), message.kind
            decoded = codec.decode(encoded)
            assert codec.encode(decoded) == encoded, message.kind

    def test_size_then_encode_after_cache_hits(self, codec):
        """Repeat the differential: a second encode of the same frame
        returns the bytes size() charged."""
        messages = build_every_kind(codec)
        first = [codec.size(m) for m in messages]
        for message, charged in zip(messages, first):
            assert len(codec.encode(message)) == charged
            assert codec.size(message) == charged


class TestNoStaleCachedFrames:
    def make_summary(self, codec, text):
        summary = BrokerSummary(codec.wire.schema, Precision.COARSE)
        summary.add(
            parse_subscription(codec.wire.schema, text),
            SubscriptionId(broker=0, local_id=0, attr_mask=0b1000),
        )
        return summary

    def test_mutated_summary_frame_is_reencoded(self, codec):
        """size() then mutate then send: the wire bytes must reflect the
        mutation (a memoized SUMMARY frame would resurface stale bytes)."""
        summary = self.make_summary(codec, "price < 5")
        message = SummaryMessage(summary=summary, merged_brokers=frozenset({0}))
        before = codec.size(message)
        summary.add(
            parse_subscription(codec.wire.schema, "volume > 100"),
            SubscriptionId(broker=0, local_id=1, attr_mask=0b10000),
        )
        encoded = codec.encode(message)
        assert len(encoded) > before
        decoded = codec.decode(encoded)
        assert set(decoded.summary.all_ids()) == set(summary.all_ids())

    def test_mutated_delta_frame_is_reencoded(self, codec):
        """The delta frame wraps live ``delta_summary`` state — same rule."""
        summary = self.make_summary(codec, "price < 5")
        message = SummaryDeltaMessage(
            adds=summary,
            removed=frozenset(),
            merged_brokers=frozenset({0}),
            base_generation=0,
            generation=1,
        )
        before = codec.size(message)
        summary.add(
            parse_subscription(codec.wire.schema, "volume > 100"),
            SubscriptionId(broker=0, local_id=1, attr_mask=0b10000),
        )
        encoded = codec.encode(message)
        assert len(encoded) > before
        decoded = codec.decode(encoded)
        assert set(decoded.adds.all_ids()) == set(summary.all_ids())

    def test_event_memo_is_safe_because_events_are_immutable(self, codec):
        """Unequal events never share bytes, and the bytes decode back to
        the event they came from."""
        event_a = Event.from_pairs([("price", AttributeType.FLOAT, 1.0)])
        event_b = Event.from_pairs([("price", AttributeType.FLOAT, 2.0)])
        message_a = EventMessage(event=event_a, brocli=frozenset(), publish_id=1)
        message_b = EventMessage(event=event_b, brocli=frozenset(), publish_id=1)
        codec.size(message_a)
        assert codec.encode(message_a) != codec.encode(message_b)
        assert codec.decode(codec.encode(message_b)).event == event_b
