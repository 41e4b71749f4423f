"""The global, ordered attribute schema.

Paper section 3 assumptions: the set of supported attributes is predefined,
ordered, and known to every broker.  The order is what gives each attribute
its bit position in the ``c3`` field of a subscription id, so every broker
must agree on it.

:func:`stock_schema` reconstructs the 7-attribute schema used throughout the
paper's running example (figures 2-6).
"""

from __future__ import annotations

from math import isfinite
from typing import Dict, Iterable, Iterator, List, Tuple

from repro.model.attributes import AttributeSpec
from repro.model.constraints import Constraint
from repro.model.events import Event
from repro.model.subscriptions import Subscription
from repro.model.types import AttributeType

__all__ = ["Schema", "SchemaError", "stock_schema"]


class SchemaError(ValueError):
    """An event or subscription does not conform to the schema."""


class Schema:
    """An ordered, immutable set of :class:`AttributeSpec`.

    The index of an attribute in the schema is its bit position in ``c3``
    (bit 0 = first attribute), matching figure 6 where a subscription over
    attributes 3, 5 and 6 (counted right-to-left from 1) has
    ``c3 = 0b0110100``.
    """

    __slots__ = ("_specs", "_index")

    def __init__(self, specs: Iterable[AttributeSpec]):
        spec_tuple = tuple(specs)
        if not spec_tuple:
            raise SchemaError("schema must contain at least one attribute")
        index: Dict[str, int] = {}
        for position, spec in enumerate(spec_tuple):
            if spec.name in index:
                raise SchemaError(f"duplicate attribute in schema: {spec.name!r}")
            index[spec.name] = position
        self._specs = spec_tuple
        self._index = index

    # -- construction helpers ---------------------------------------------------

    @classmethod
    def of(cls, **types: AttributeType) -> "Schema":
        """Build a schema from keyword ``name=AttributeType`` pairs.

        Attribute order follows keyword order (guaranteed in Python >= 3.7).
        """
        return cls(AttributeSpec(name, typ) for name, typ in types.items())

    # -- lookups -----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._specs)

    def __iter__(self) -> Iterator[AttributeSpec]:
        return iter(self._specs)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    @property
    def specs(self) -> Tuple[AttributeSpec, ...]:
        return self._specs

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(spec.name for spec in self._specs)

    def spec(self, name: str) -> AttributeSpec:
        try:
            return self._specs[self._index[name]]
        except KeyError:
            raise SchemaError(f"attribute not in schema: {name!r}") from None

    def type_of(self, name: str) -> AttributeType:
        return self.spec(name).type

    def position(self, name: str) -> int:
        """Bit position of ``name`` in the ``c3`` attribute mask."""
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(f"attribute not in schema: {name!r}") from None

    def arithmetic_names(self) -> Tuple[str, ...]:
        return tuple(s.name for s in self._specs if s.is_arithmetic)

    def string_names(self) -> Tuple[str, ...]:
        return tuple(s.name for s in self._specs if s.is_string)

    # -- c3 attribute masks --------------------------------------------------------

    def attribute_mask(self, names: Iterable[str]) -> int:
        """The ``c3`` bitmask for a set of attribute names."""
        mask = 0
        for name in names:
            mask |= 1 << self.position(name)
        return mask

    def mask_of(self, subscription: Subscription) -> int:
        return self.attribute_mask(subscription.attribute_names)

    def names_from_mask(self, mask: int) -> List[str]:
        if mask < 0 or mask >= (1 << len(self._specs)):
            raise SchemaError(f"attribute mask {mask:#x} out of range for schema")
        return [spec.name for pos, spec in enumerate(self._specs) if mask & (1 << pos)]

    # -- validation ------------------------------------------------------------------

    def validate_event(self, event: Event) -> None:
        """Check every event attribute exists in the schema with the right
        type, and every arithmetic value is finite: summary rows cannot
        place NaN or the infinities where :meth:`Subscription.matches` does."""
        for name, typ, value in event.items():
            expected = self.type_of(name)
            if typ is not expected:
                raise SchemaError(
                    f"event attribute {name!r} has type {typ.value}, "
                    f"schema says {expected.value}"
                )
            if isinstance(value, float) and not isfinite(value):
                raise SchemaError(f"event attribute {name!r} is not finite: {value}")

    def validate_constraint(self, constraint: Constraint) -> None:
        expected = self.type_of(constraint.name)
        if constraint.attr_type is not expected:
            raise SchemaError(
                f"constraint on {constraint.name!r} has type "
                f"{constraint.attr_type.value}, schema says {expected.value}"
            )

    def validate_subscription(self, subscription: Subscription) -> None:
        for constraint in subscription:
            self.validate_constraint(constraint)

    # -- equality ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._specs == other._specs

    def __hash__(self) -> int:
        return hash(self._specs)

    def __repr__(self) -> str:
        return f"Schema({', '.join(str(s) for s in self._specs)})"


def stock_schema() -> Schema:
    """The 7-attribute stock-ticker schema of the paper's running example.

    Order matters: it defines the ``c3`` bit positions.  We use the order of
    figure 2 (exchange, symbol, when, price, volume, high, low).
    """
    return Schema.of(
        exchange=AttributeType.STRING,
        symbol=AttributeType.STRING,
        when=AttributeType.DATE,
        price=AttributeType.FLOAT,
        volume=AttributeType.INTEGER,
        high=AttributeType.FLOAT,
        low=AttributeType.FLOAT,
    )
