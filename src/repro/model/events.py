"""Events — the published side of the system.

Per the paper's event schema (section 2.1), an event is "an untyped set of
typed attributes", i.e. a flat record of (type, name, value) triples.  Figure
2's example::

    string  exchange = NYSE
    string  symbol   = OTE
    date    when     = Jul 1 12:05:25 EET 2003
    float   price    = 8.40
    integer volume   = 132700
    float   high     = 8.80
    float   low      = 8.22

An event may carry more attributes than a subscription mentions; matching
only requires that every attribute *the subscription constrains* is present
and satisfied.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Optional, Tuple

from repro.model.attributes import AttributeSpec
from repro.model.types import AttributeType, AttributeValue, coerce_value

__all__ = ["Event"]

class Event:
    """An immutable published event.

    Built either from explicit :class:`AttributeSpec` typed values or, more
    conveniently, from plain keyword values via :meth:`Event.of` (types are
    inferred: ``str`` -> STRING, ``int`` -> INTEGER, ``float`` -> FLOAT).
    """

    __slots__ = ("_attrs", "_hash", "_key_memo", "_origin")

    def __init__(self, attributes: Mapping[AttributeSpec, object]):
        attrs: Dict[str, Tuple[AttributeType, AttributeValue]] = {}
        for spec, raw in attributes.items():
            if spec.name in attrs:
                raise ValueError(f"duplicate attribute name in event: {spec.name!r}")
            attrs[spec.name] = (spec.type, coerce_value(spec.type, raw))
        self._attrs = attrs
        self._hash: Optional[int] = None
        self._key_memo: Optional[
            Tuple[Tuple[str, AttributeType, AttributeValue], ...]
        ] = None
        self._origin: Optional[Tuple[object, bytes]] = None

    # -- construction -------------------------------------------------------

    @classmethod
    def of(cls, **values: object) -> "Event":
        """Build an event inferring types from the Python values."""
        attributes: Dict[AttributeSpec, object] = {}
        for name, value in values.items():
            attributes[AttributeSpec(name, _infer_type(value))] = value
        return cls(attributes)

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[Tuple[str, AttributeType, object]]
    ) -> "Event":
        """Build an event from explicit (name, type, value) triples."""
        return cls({AttributeSpec(name, typ): value for name, typ, value in pairs})

    @classmethod
    def from_typed(
        cls,
        attrs: Dict[str, Tuple[AttributeType, AttributeValue]],
        origin: Optional[Tuple[object, bytes]] = None,
    ) -> "Event":
        """Trusted constructor for values already in canonical form.

        ``attrs`` is the internal name -> (type, value) layout with values
        the caller guarantees canonical (the wire codec qualifies: names
        come from validated schema specs and each value was decoded as
        its type's canonical Python representation).  Skips the
        per-attribute spec validation and coercion of ``__init__``; the
        dict is owned by the event afterwards and must not be mutated.

        ``origin`` is opaque to this layer: a decoder passes ``(decoder,
        the bytes it decoded)`` so that the same decoder can hand those
        bytes back instead of encoding the event again.  An event never
        changes, so its origin bytes never go stale; they live and die
        with the event.
        """
        event = cls.__new__(cls)
        event._attrs = attrs
        event._hash = None
        event._key_memo = None
        event._origin = origin
        return event

    # -- access --------------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._attrs

    def __len__(self) -> int:
        return len(self._attrs)

    def __iter__(self) -> Iterator[str]:
        return iter(self._attrs)

    def value(self, name: str) -> AttributeValue:
        return self._attrs[name][1]

    def get(self, name: str, default: Optional[AttributeValue] = None) -> Optional[AttributeValue]:
        entry = self._attrs.get(name)
        return entry[1] if entry is not None else default

    def type_of(self, name: str) -> AttributeType:
        return self._attrs[name][0]

    def items(self) -> Iterator[Tuple[str, AttributeType, AttributeValue]]:
        for name, (typ, value) in self._attrs.items():
            yield name, typ, value

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(self._attrs)

    # -- equality / hashing ---------------------------------------------------

    def _key(self) -> Tuple[Tuple[str, AttributeType, AttributeValue], ...]:
        if self._key_memo is None:
            self._key_memo = tuple(
                sorted((n, t, v) for n, (t, v) in self._attrs.items())
            )
        return self._key_memo

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._key())
        return self._hash

    def __repr__(self) -> str:
        body = ", ".join(f"{n}={v!r}" for n, (_t, v) in self._attrs.items())
        return f"Event({body})"


def _infer_type(value: object) -> AttributeType:
    if isinstance(value, bool):
        raise TypeError("boolean event attributes are not part of the schema model")
    if isinstance(value, str):
        return AttributeType.STRING
    if isinstance(value, int):
        return AttributeType.INTEGER
    if isinstance(value, float):
        return AttributeType.FLOAT
    import datetime

    if isinstance(value, datetime.datetime):
        return AttributeType.DATE
    raise TypeError(f"cannot infer attribute type for {type(value).__name__}")
