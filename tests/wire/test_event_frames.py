"""EVENT and NOTIFY frames: the compiled reader and the encode-once rule.

A decoded event keeps the bytes it arrived in, tagged with the decoding
codec, and that codec re-sends them instead of encoding the event again.
These properties pin what that rule must never change:

* ``decode(frame)`` equals the message that was encoded;
* ``encode(decode(frame)) == frame`` — a forward is byte-identical;
* an event decoded by one codec and encoded by another (here F32 then
  F64) is encoded afresh, exactly as if it had never been on the wire.

The default budget keeps tier-1 fast; the CI differential job raises it:
``COMPILED_DIFF_EXAMPLES=500 pytest tests/wire/test_event_frames.py``.
"""

import os

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.model import Event, IdCodec, SubscriptionId, stock_schema
from repro.model.types import AttributeType
from repro.wire.codec import ValueWidth, WireCodec
from repro.wire.messages import EventMessage, MessageCodec, NotifyMessage
from repro.workload.scenarios import mixed_schema

EXAMPLES = int(os.environ.get("COMPILED_DIFF_EXAMPLES", "100"))

FRAME_SETTINGS = settings(
    max_examples=EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

SCHEMAS = {"stock": stock_schema(), "mixed": mixed_schema()}
WIDTHS = (ValueWidth.F32, ValueWidth.F64)
#: One codec per (schema, width), built once: the reuse rule is keyed on
#: codec identity, so every example must go through the same instance.
CODECS = {
    (name, width): MessageCodec(
        WireCodec(schema, IdCodec(24, 1 << 20, len(schema)), width)
    )
    for name, schema in SCHEMAS.items()
    for width in WIDTHS
}


def _values(typ: AttributeType, width: ValueWidth):
    if typ is AttributeType.STRING:
        return st.text(max_size=12)
    if typ is AttributeType.INTEGER:
        return st.integers(-(2**62), 2**62)
    # Floats representable at the codec's width, so decode(encode(e)) == e.
    return st.floats(
        width=32 if width is ValueWidth.F32 else 64,
        allow_nan=False,
        allow_infinity=False,
    )


@st.composite
def events(draw, schema, width):
    specs = draw(
        st.lists(st.sampled_from(schema.specs), min_size=1, unique=True)
    )
    return Event.from_pairs(
        (spec.name, spec.type, draw(_values(spec.type, width))) for spec in specs
    )


@st.composite
def frames(draw):
    """A codec and an EVENT or NOTIFY message it can encode losslessly."""
    name = draw(st.sampled_from(sorted(SCHEMAS)))
    width = draw(st.sampled_from(WIDTHS))
    codec = CODECS[(name, width)]
    schema = SCHEMAS[name]
    event = draw(events(schema, width))
    publish_id = draw(st.integers(0, 2**49))
    if draw(st.booleans()):
        brocli = draw(st.frozensets(st.integers(0, 300), max_size=5))
        return codec, EventMessage(event=event, brocli=brocli, publish_id=publish_id)
    matched = draw(
        st.frozensets(
            st.builds(
                SubscriptionId,
                broker=st.integers(0, 23),
                local_id=st.integers(0, (1 << 20) - 1),
                attr_mask=st.integers(1, (1 << len(schema)) - 1),
            ),
            max_size=5,
        )
    )
    return codec, NotifyMessage(event=event, matched=matched, publish_id=publish_id)


@FRAME_SETTINGS
@given(frames())
def test_decode_returns_the_encoded_message(case):
    codec, message = case
    assert codec.decode(codec.encode(message)) == message


@FRAME_SETTINGS
@given(frames())
def test_reencoding_a_decoded_frame_is_byte_identical(case):
    codec, message = case
    frame = codec.encode(message)
    assert codec.encode(codec.decode(frame)) == frame


@FRAME_SETTINGS
@given(frames())
def test_forward_with_a_new_header_reuses_the_event_bytes(case):
    """The Algorithm-3 forward: same event, grown BROCLI, new publish id.
    The frame must equal a fresh encode of the same message."""
    codec, message = case
    decoded = codec.decode(codec.encode(message))
    forward = EventMessage(
        event=decoded.event, brocli=frozenset({0, 1, 2}), publish_id=7
    )
    fresh = EventMessage(event=message.event, brocli=frozenset({0, 1, 2}), publish_id=7)
    assert codec.encode(forward) == codec.encode(fresh)


@FRAME_SETTINGS
@given(data=st.data(), name=st.sampled_from(sorted(SCHEMAS)))
def test_another_codec_never_reuses_the_stamp(data, name):
    """F32 bytes must not leak into an F64 frame: the F64 codec encodes
    the decoded event afresh."""
    narrow = CODECS[(name, ValueWidth.F32)]
    wide = CODECS[(name, ValueWidth.F64)]
    event = data.draw(events(SCHEMAS[name], ValueWidth.F32))
    decoded = narrow.wire.decode_event(narrow.wire.encode_event(event))
    fresh = Event.from_pairs(decoded.items())
    assert wide.wire.encode_event(decoded) == wide.wire.encode_event(fresh)
    message = NotifyMessage(event=decoded, matched=frozenset(), publish_id=3)
    assert wide.encode(message) == wide.encode(
        NotifyMessage(event=fresh, matched=frozenset(), publish_id=3)
    )


def test_reuse_hands_back_the_arrival_bytes():
    """The reuse is real, not a re-encode that happens to agree."""
    codec = CODECS[("stock", ValueWidth.F64)]
    payload = codec.wire.encode_event(Event.of(symbol="OTE", price=8.4))
    decoded = codec.wire.decode_event(payload)
    assert codec.wire.encode_event(decoded) is payload
