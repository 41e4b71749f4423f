"""Binary wire codec for events, subscriptions and summaries.

The paper's headline metric is network bandwidth in bytes, so this
reproduction *encodes* everything that crosses a broker link and charges the
real encoded length — no hand-waved size constants in the simulator itself.
(The analytic model of section 5.1 lives separately in
:mod:`repro.analysis.cost_model`; tests check the two agree.)

Format overview (all integers are unsigned LEB128 varints unless noted):

* strings: ``varint length + utf-8 bytes``
* arithmetic values: IEEE float, big-endian, 4 or 8 bytes per
  :class:`ValueWidth`.  Table 2 uses ``sst = 4`` so experiments run with
  ``F32``; ``F64`` exists for lossless round-trips (and is the default).
* subscription ids: fixed-width packed ``c1|c2|c3`` via
  :class:`repro.model.ids.IdCodec`
* subscriptions: constraints as ``(attr position, operator tag, operand)``
* summaries: per-attribute AACS (sub-range rows then equality rows) and
  SACS (pattern rows) sections

The codec is schema-aware: attribute *positions* (not names) go on the wire,
which is exactly why the paper requires the ordered attribute set to be
known by every broker (section 3, assumption iii).
"""

from __future__ import annotations

import enum
import math
import struct
from typing import Dict, List, Set, Tuple

from repro.model.constraints import Constraint, Operator
from repro.model.events import Event
from repro.model.types import AttributeValue
from repro.model.ids import IdCodec, SubscriptionId
from repro.model.schema import Schema
from repro.model.subscriptions import Subscription
from repro.model.types import AttributeType
from repro.summary import idsets
from repro.summary.aacs import AACS
from repro.summary.intervals import Interval
from repro.summary.patterns import (
    ConjunctionPattern,
    GlobPattern,
    NotEqualsPattern,
    StringPattern,
)
from repro.summary.precision import Precision
from repro.summary.sacs import SACS
from repro.summary.summary import BrokerSummary

__all__ = ["ValueWidth", "WireCodec", "ByteWriter", "ByteReader", "CodecError"]


class CodecError(ValueError):
    """Malformed wire data."""


def _decode_guard(fn):
    """Public decoders must fail with CodecError, whatever the garbage.

    Malformed input can surface as UnicodeDecodeError (bad UTF-8),
    ValueError (out-of-range ids, empty intervals), or model-layer
    TypeErrors; callers should only ever have to catch CodecError.
    """

    import functools

    @functools.wraps(fn)
    def guarded(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except CodecError:
            raise
        except (ValueError, TypeError, UnicodeDecodeError, OverflowError) as exc:
            raise CodecError(f"malformed wire data: {exc}") from exc

    return guarded


class ValueWidth(enum.Enum):
    """On-wire width of arithmetic values (the paper's ``sst``)."""

    F32 = 4
    F64 = 8

    @property
    def bytes(self) -> int:
        return self.value

    @property
    def struct_format(self) -> str:
        return ">f" if self is ValueWidth.F32 else ">d"


#: One shared bytes object per possible byte value — writing a tag or a
#: single-byte varint (the overwhelmingly common case) allocates nothing.
_BYTE_TABLE = tuple(bytes([value]) for value in range(256))

_STRUCT_F32 = struct.Struct(">f")
_STRUCT_F64 = struct.Struct(">d")


class ByteWriter:
    """An append-only byte buffer with varint/string/float primitives."""

    __slots__ = ("_chunks", "_size")

    def __init__(self) -> None:
        self._chunks: List[bytes] = []
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def getvalue(self) -> bytes:
        return b"".join(self._chunks)

    def raw(self, data: bytes) -> None:
        self._chunks.append(data)
        self._size += len(data)

    def byte(self, value: int) -> None:
        if not 0 <= value <= 0xFF:
            raise CodecError(f"byte out of range: {value}")
        self._chunks.append(_BYTE_TABLE[value])
        self._size += 1

    def varint(self, value: int) -> None:
        if value < 0x80:
            if value < 0:
                raise CodecError(f"varint must be non-negative, got {value}")
            self._chunks.append(_BYTE_TABLE[value])
            self._size += 1
            return
        out = bytearray()
        while True:
            piece = value & 0x7F
            value >>= 7
            if value:
                out.append(piece | 0x80)
            else:
                out.append(piece)
                break
        self.raw(bytes(out))

    def zigzag(self, value: int) -> None:
        self.varint(value << 1 if value >= 0 else ((-value) << 1) - 1)

    def string(self, value: str) -> None:
        data = value.encode("utf-8")
        self.varint(len(data))
        self.raw(data)

    def float_value(self, value: float, width: ValueWidth) -> None:
        if width is ValueWidth.F64:
            self.raw(_STRUCT_F64.pack(value))
            return
        if math.isfinite(value):
            # Clamp to the f32 range rather than silently producing inf.
            limit = 3.4028235e38
            value = max(-limit, min(limit, value))
        self.raw(_STRUCT_F32.pack(value))


class ByteReader:
    """Sequential reader matching :class:`ByteWriter`."""

    __slots__ = ("_data", "_pos")

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos

    def at_end(self) -> bool:
        return self._pos >= len(self._data)

    def raw(self, count: int) -> bytes:
        pos = self._pos
        end = pos + count
        if end > len(self._data):
            raise CodecError(
                f"truncated data: wanted {count} bytes, have {len(self._data) - pos}"
            )
        self._pos = end
        return self._data[pos:end]

    def byte(self) -> int:
        pos = self._pos
        data = self._data
        if pos >= len(data):
            raise CodecError("truncated data: wanted 1 bytes, have 0")
        self._pos = pos + 1
        return data[pos]

    def varint(self) -> int:
        data = self._data
        pos = self._pos
        size = len(data)
        result = 0
        shift = 0
        while True:
            if pos >= size:
                raise CodecError("truncated data: wanted 1 bytes, have 0")
            piece = data[pos]
            pos += 1
            result |= (piece & 0x7F) << shift
            if not piece & 0x80:
                self._pos = pos
                return result
            shift += 7
            if shift > 70:
                raise CodecError("varint too long")

    def zigzag(self) -> int:
        raw = self.varint()
        return (raw >> 1) if not raw & 1 else -((raw + 1) >> 1)

    def string(self) -> str:
        length = self.varint()
        return self.raw(length).decode("utf-8")

    def float_value(self, width: ValueWidth) -> float:
        if width is ValueWidth.F64:
            return _STRUCT_F64.unpack(self.raw(8))[0]
        return _STRUCT_F32.unpack(self.raw(4))[0]


_TYPE_TAGS = {
    AttributeType.STRING: 0,
    AttributeType.INTEGER: 1,
    AttributeType.FLOAT: 2,
    AttributeType.DATE: 3,
}
_TYPE_BY_TAG = {tag: typ for typ, tag in _TYPE_TAGS.items()}

_OP_TAGS = {op: tag for tag, op in enumerate(Operator)}
_OP_BY_TAG = {tag: op for op, tag in _OP_TAGS.items()}

_PATTERN_GLOB = 0
_PATTERN_NE = 1
_PATTERN_CONJ = 2


class WireCodec:
    """Schema-aware encoder/decoder for every on-wire entity."""

    def __init__(
        self,
        schema: Schema,
        id_codec: IdCodec,
        value_width: ValueWidth = ValueWidth.F64,
    ):
        if id_codec.num_attributes != len(schema):
            raise CodecError(
                f"id codec has {id_codec.num_attributes} attribute bits, "
                f"schema has {len(schema)} attributes"
            )
        self.schema = schema
        self.id_codec = id_codec
        self.value_width = value_width

    # -- events --------------------------------------------------------------

    def encode_event(self, event: Event) -> bytes:
        writer = ByteWriter()
        writer.varint(len(event))
        for name, typ, value in event.items():
            writer.varint(self.schema.position(name))
            if typ.is_string:
                writer.string(value)  # type: ignore[arg-type]
            elif typ is AttributeType.INTEGER:
                writer.zigzag(int(value))  # type: ignore[arg-type]
            else:
                writer.float_value(float(value), self.value_width)  # type: ignore[arg-type]
        return writer.getvalue()

    @_decode_guard
    def decode_event(self, data: bytes) -> Event:
        reader = ByteReader(data)
        event = self.read_event(reader)
        if not reader.at_end():
            raise CodecError(f"{reader.remaining} trailing bytes after event")
        return event

    def read_event(self, reader: ByteReader) -> Event:
        count = reader.varint()
        attrs: Dict[str, Tuple[AttributeType, AttributeValue]] = {}
        width = self.value_width
        for _ in range(count):
            spec = self._spec_at(reader.varint())
            typ = spec.type
            if typ is AttributeType.STRING:
                value: AttributeValue = reader.string()
            elif typ is AttributeType.INTEGER:
                value = reader.zigzag()
            else:
                value = reader.float_value(width)
            if spec.name in attrs:
                raise CodecError(f"duplicate attribute name in event: {spec.name!r}")
            attrs[spec.name] = (typ, value)
        # Values decoded above are already canonical for their types and
        # the names come from validated schema specs, so the trusted
        # constructor applies.
        return Event.from_typed(attrs)

    # -- subscriptions -----------------------------------------------------------

    def encode_subscription(self, subscription: Subscription) -> bytes:
        writer = ByteWriter()
        self.write_subscription(writer, subscription)
        return writer.getvalue()

    def write_subscription(self, writer: ByteWriter, subscription: Subscription) -> None:
        writer.varint(len(subscription))
        for constraint in subscription:
            writer.varint(self.schema.position(constraint.name))
            writer.byte(_OP_TAGS[constraint.operator])
            if constraint.attr_type.is_string:
                writer.string(constraint.value)  # type: ignore[arg-type]
            elif constraint.attr_type is AttributeType.INTEGER:
                writer.zigzag(int(constraint.value))  # type: ignore[arg-type]
            else:
                writer.float_value(float(constraint.value), self.value_width)  # type: ignore[arg-type]

    @_decode_guard
    def decode_subscription(self, data: bytes) -> Subscription:
        reader = ByteReader(data)
        subscription = self.read_subscription(reader)
        if not reader.at_end():
            raise CodecError(f"{reader.remaining} trailing bytes after subscription")
        return subscription

    def read_subscription(self, reader: ByteReader) -> Subscription:
        count = reader.varint()
        if count == 0:
            raise CodecError("subscription with zero constraints")
        constraints: List[Constraint] = []
        for _ in range(count):
            spec = self._spec_at(reader.varint())
            operator = self._op_at(reader.byte())
            if spec.type.is_string:
                value: object = reader.string()
            elif spec.type is AttributeType.INTEGER:
                value = reader.zigzag()
            else:
                value = reader.float_value(self.value_width)
            constraints.append(
                Constraint(name=spec.name, attr_type=spec.type, operator=operator, value=value)
            )
        return Subscription(constraints)

    # -- subscription ids -----------------------------------------------------------

    def write_id_list(self, writer: ByteWriter, ids: Set[SubscriptionId]) -> None:
        writer.varint(len(ids))
        for sid in sorted(ids):
            writer.raw(self.id_codec.to_bytes(sid))

    def read_id_list(self, reader: ByteReader) -> Set[SubscriptionId]:
        count = reader.varint()
        return {
            self.id_codec.from_bytes(reader.raw(self.id_codec.byte_size))
            for _ in range(count)
        }

    def write_compact_id_set(self, writer: ByteWriter, ids: Set[SubscriptionId]) -> None:
        """Roaring-style containers of sorted varint gaps (delta frames)."""
        idsets.write_id_set(writer, ids, self.id_codec)

    def read_compact_id_set(self, reader: ByteReader) -> Set[SubscriptionId]:
        return idsets.read_id_set(reader, self.id_codec)

    # -- summaries --------------------------------------------------------------------

    def encode_summary(self, summary: BrokerSummary) -> bytes:
        return self._encode_summary(summary, self.write_id_list)

    def encode_summary_compact(self, summary: BrokerSummary) -> bytes:
        """The delta-frame summary layout: identical row structure, but id
        lists ride as compressed containers (:mod:`repro.summary.idsets`).
        The classic :meth:`encode_summary` keeps the fixed-width lists the
        paper's figures charge, so published numbers stay comparable."""
        return self._encode_summary(summary, self.write_compact_id_set)

    def _encode_summary(self, summary: BrokerSummary, write_ids) -> bytes:
        writer = ByteWriter()
        writer.byte(0 if summary.precision is Precision.COARSE else 1)
        arithmetic = summary.arithmetic_structures()
        writer.varint(len(arithmetic))
        for name in sorted(arithmetic, key=self.schema.position):
            writer.varint(self.schema.position(name))
            self._write_aacs(writer, arithmetic[name], write_ids)
        strings = summary.string_structures()
        writer.varint(len(strings))
        for name in sorted(strings, key=self.schema.position):
            writer.varint(self.schema.position(name))
            self._write_sacs(writer, strings[name], write_ids)
        return writer.getvalue()

    @_decode_guard
    def decode_summary(self, data: bytes) -> BrokerSummary:
        return self._decode_summary(data, self.read_id_list)

    @_decode_guard
    def decode_summary_compact(self, data: bytes) -> BrokerSummary:
        return self._decode_summary(data, self.read_compact_id_set)

    def _decode_summary(self, data: bytes, read_ids) -> BrokerSummary:
        reader = ByteReader(data)
        precision = Precision.COARSE if reader.byte() == 0 else Precision.EXACT
        summary = BrokerSummary(self.schema, precision)
        for _ in range(reader.varint()):
            spec = self._spec_at(reader.varint())
            structure = self._read_aacs(reader, precision, read_ids)
            summary._aacs[spec.name] = structure  # codec is a friend module
        for _ in range(reader.varint()):
            spec = self._spec_at(reader.varint())
            summary._sacs[spec.name] = self._read_sacs(reader, precision, read_ids)
        if not reader.at_end():
            raise CodecError(f"{reader.remaining} trailing bytes after summary")
        return summary

    def _write_aacs(self, writer: ByteWriter, structure: AACS, write_ids=None) -> None:
        if write_ids is None:
            write_ids = self.write_id_list
        rows = structure.range_rows()
        writer.varint(len(rows))
        for row in rows:
            self._write_interval(writer, row.interval)
            write_ids(writer, row.ids)
        equalities = structure.equality_rows()
        writer.varint(len(equalities))
        for value, ids in equalities:
            writer.float_value(value, self.value_width)
            write_ids(writer, set(ids))

    def _read_aacs(self, reader: ByteReader, precision: Precision, read_ids=None) -> AACS:
        if read_ids is None:
            read_ids = self.read_id_list
        structure = AACS(precision)
        for _ in range(reader.varint()):
            interval = self._read_interval(reader)
            ids = read_ids(reader)
            structure.insert_interval(interval, ids)
        for _ in range(reader.varint()):
            value = reader.float_value(self.value_width)
            ids = read_ids(reader)
            structure._insert_point(value, ids)
        return structure

    def _write_interval(self, writer: ByteWriter, interval: Interval) -> None:
        flags = (1 if interval.lo_open else 0) | (2 if interval.hi_open else 0)
        writer.byte(flags)
        writer.float_value(interval.lo, self.value_width)
        writer.float_value(interval.hi, self.value_width)

    def _read_interval(self, reader: ByteReader) -> Interval:
        flags = reader.byte()
        lo = reader.float_value(self.value_width)
        hi = reader.float_value(self.value_width)
        try:
            return Interval(lo, hi, bool(flags & 1), bool(flags & 2))
        except ValueError as exc:
            raise CodecError(f"invalid interval on wire: {exc}") from exc

    def _write_sacs(self, writer: ByteWriter, structure: SACS, write_ids=None) -> None:
        if write_ids is None:
            write_ids = self.write_id_list
        rows = structure.rows()
        writer.varint(len(rows))
        for row in rows:
            self._write_pattern(writer, row.pattern)
            write_ids(writer, row.ids)

    def _read_sacs(self, reader: ByteReader, precision: Precision, read_ids=None) -> SACS:
        if read_ids is None:
            read_ids = self.read_id_list
        structure = SACS(precision)
        for _ in range(reader.varint()):
            pattern = self._read_pattern(reader)
            ids = read_ids(reader)
            structure.insert_pattern(pattern, ids)
        return structure

    def _write_pattern(self, writer: ByteWriter, pattern: StringPattern) -> None:
        if isinstance(pattern, GlobPattern):
            writer.byte(_PATTERN_GLOB)
            writer.varint(len(pattern.pieces))
            for piece in pattern.pieces:
                writer.string(piece)
        elif isinstance(pattern, NotEqualsPattern):
            writer.byte(_PATTERN_NE)
            writer.string(pattern.value)
        elif isinstance(pattern, ConjunctionPattern):
            writer.byte(_PATTERN_CONJ)
            writer.varint(len(pattern.parts))
            for part in pattern.parts:
                self._write_pattern(writer, part)
        else:  # pragma: no cover - closed type family
            raise CodecError(f"unknown pattern type {type(pattern).__name__}")

    def _read_pattern(self, reader: ByteReader) -> StringPattern:
        tag = reader.byte()
        if tag == _PATTERN_GLOB:
            count = reader.varint()
            if count == 0:
                raise CodecError("glob pattern with zero pieces")
            return GlobPattern(tuple(reader.string() for _ in range(count)))
        if tag == _PATTERN_NE:
            return NotEqualsPattern(reader.string())
        if tag == _PATTERN_CONJ:
            count = reader.varint()
            parts = [self._read_pattern(reader) for _ in range(count)]
            return ConjunctionPattern(parts)
        raise CodecError(f"unknown pattern tag {tag}")

    # -- broker id sets ------------------------------------------------------------------

    def encode_broker_set(self, brokers: Set[int]) -> bytes:
        writer = ByteWriter()
        self.write_broker_set(writer, brokers)
        return writer.getvalue()

    def write_broker_set(self, writer: ByteWriter, brokers: Set[int]) -> None:
        writer.varint(len(brokers))
        for broker in sorted(brokers):
            writer.varint(broker)

    def read_broker_set(self, reader: ByteReader) -> Set[int]:
        return {reader.varint() for _ in range(reader.varint())}

    # -- helpers ------------------------------------------------------------------

    def _spec_at(self, position: int):
        specs = self.schema.specs
        if not 0 <= position < len(specs):
            raise CodecError(f"attribute position {position} out of schema range")
        return specs[position]

    @staticmethod
    def _op_at(tag: int) -> Operator:
        try:
            return _OP_BY_TAG[tag]
        except KeyError:
            raise CodecError(f"unknown operator tag {tag}") from None

    # -- size helpers (no allocation of the full buffer needed) --------------------

    def summary_size(self, summary: BrokerSummary) -> int:
        return len(self.encode_summary(summary))

    def event_size(self, event: Event) -> int:
        return len(self.encode_event(event))

    def subscription_size(self, subscription: Subscription) -> int:
        return len(self.encode_subscription(subscription))
