"""Decoder fuzzing: garbage in, CodecError out — never anything else.

A broker feeds network bytes straight into these decoders; any exception
other than :class:`CodecError` would be a crash vector.  Hypothesis throws
random and mutated-valid byte strings at every public decode entry point.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.model import Event, IdCodec, SubscriptionId, stock_schema
from repro.wire.codec import ByteWriter, CodecError, ValueWidth, WireCodec
from repro.wire.messages import EventMessage, MessageCodec, MessageKind


@pytest.fixture(scope="module")
def wire():
    return WireCodec(stock_schema(), IdCodec(24, 1 << 20, 7), ValueWidth.F64)


@pytest.fixture(scope="module")
def message_codec(wire):
    return MessageCodec(wire)


_GARBAGE = st.binary(max_size=64)


@settings(max_examples=300)
@given(data=_GARBAGE)
def test_decode_event_never_crashes(wire, data):
    try:
        wire.decode_event(data)
    except CodecError:
        pass


@settings(max_examples=300)
@given(data=_GARBAGE)
def test_decode_subscription_never_crashes(wire, data):
    try:
        wire.decode_subscription(data)
    except CodecError:
        pass


@settings(max_examples=300)
@given(data=_GARBAGE)
def test_decode_summary_never_crashes(wire, data):
    try:
        wire.decode_summary(data)
    except CodecError:
        pass


@settings(max_examples=300)
@given(data=_GARBAGE)
def test_decode_message_never_crashes(message_codec, data):
    try:
        message_codec.decode(data)
    except CodecError:
        pass


@settings(max_examples=200)
@given(flip=st.integers(0, 10_000), value=st.integers(0, 255))
def test_mutated_valid_message_never_crashes(message_codec, flip, value):
    """Bit-flipped real messages are the realistic corruption case."""
    valid = message_codec.encode(
        EventMessage(
            event=Event.of(symbol="OTE", price=8.4),
            brocli=frozenset({1, 2}),
            publish_id=7,
        )
    )
    position = flip % len(valid)
    mutated = valid[:position] + bytes([value]) + valid[position + 1:]
    try:
        message_codec.decode(mutated)
    except CodecError:
        pass


def test_valid_data_still_decodes(wire, message_codec):
    """The guard must not swallow success paths."""
    event = Event.of(symbol="OTE", price=8.4)
    assert wire.decode_event(wire.encode_event(event)) == event
    message = EventMessage(event=event, brocli=frozenset(), publish_id=1)
    assert message_codec.decode(message_codec.encode(message)) == message


# -- EVENT / NOTIFY frames with a damaged embedded event ---------------------
#
# The frame header is intact; only the event payload inside it is wrong.
# The in-place event reader must reject every such frame with CodecError.

_SYMBOL = 1  # stock schema positions
_PRICE = 3


def _payload(symbol: bytes, position: int = _SYMBOL) -> bytes:
    """``symbol = <bytes>, price = 8.4`` written field by field, so a test
    can put any bytes where the UTF-8 text goes."""
    writer = ByteWriter()
    writer.varint(2)
    writer.varint(position)
    writer.varint(len(symbol))
    writer.raw(symbol)
    writer.varint(_PRICE)
    writer.float_value(8.4, ValueWidth.F64)
    return writer.getvalue()


def _frame(wire, kind: MessageKind, payload: bytes, declared=None) -> bytes:
    writer = ByteWriter()
    writer.byte(int(kind))
    writer.varint(1 << 40)  # a multi-byte publish id, as the runtime mints
    if kind is MessageKind.EVENT:
        wire.write_broker_set(writer, {0, 2})
    else:
        wire.write_id_list(writer, {SubscriptionId(2, 5, 0b1010)})
    writer.varint(len(payload) if declared is None else declared)
    writer.raw(payload)
    return writer.getvalue()


_KINDS = st.sampled_from([MessageKind.EVENT, MessageKind.NOTIFY])


def test_intact_frames_decode(wire, message_codec):
    """The fixtures below damage a frame that is otherwise valid."""
    for kind in (MessageKind.EVENT, MessageKind.NOTIFY):
        message = message_codec.decode(_frame(wire, kind, _payload(b"OTE")))
        assert message.event == Event.of(symbol="OTE", price=8.4)


@settings(max_examples=100)
@given(kind=_KINDS, cut=st.integers(0, 100), frame_too=st.booleans())
def test_truncated_event_payload_is_rejected(wire, message_codec, kind, cut, frame_too):
    """Cut the event short: either the frame agrees on the shorter length
    (the event itself is truncated) or it still declares the full one
    (the frame is truncated)."""
    payload = _payload(b"OTE")
    short = payload[: cut % len(payload)]
    declared = len(payload) if frame_too else len(short)
    with pytest.raises(CodecError):
        message_codec.decode(_frame(wire, kind, short, declared))


@settings(max_examples=100)
@given(kind=_KINDS, extra=st.binary(min_size=1, max_size=8), declared_too=st.booleans())
def test_overlong_event_payload_is_rejected(wire, message_codec, kind, extra, declared_too):
    """Bytes after the event: inside its declared span (trailing bytes
    after the event) or after it (trailing bytes after the frame)."""
    payload = _payload(b"OTE")
    declared = len(payload) + len(extra) if declared_too else len(payload)
    with pytest.raises(CodecError):
        message_codec.decode(_frame(wire, kind, payload + extra, declared))


@settings(max_examples=100)
@given(kind=_KINDS, position=st.integers(7, 1 << 40))
def test_event_with_out_of_range_position_is_rejected(wire, message_codec, kind, position):
    with pytest.raises(CodecError):
        message_codec.decode(_frame(wire, kind, _payload(b"OTE", position)))


@settings(max_examples=100)
@given(
    kind=_KINDS,
    text=st.sampled_from([b"\xff", b"O\xc3(", b"\xed\xa0\x80", b"OT\xe2\x82"]),
)
def test_event_with_bad_utf8_is_rejected(wire, message_codec, kind, text):
    with pytest.raises(CodecError):
        message_codec.decode(_frame(wire, kind, _payload(text)))


@settings(max_examples=300)
@given(kind=_KINDS, payload=_GARBAGE, declared=st.none() | st.integers(0, 80))
def test_garbage_event_payload_never_crashes(wire, message_codec, kind, payload, declared):
    try:
        message_codec.decode(_frame(wire, kind, payload, declared))
    except CodecError:
        pass


def test_empty_and_header_only_frames_raise_codec_error(message_codec):
    for data in (b"", bytes([MessageKind.EVENT]), bytes([MessageKind.NOTIFY, 0x80])):
        with pytest.raises(CodecError):
            message_codec.decode(data)
