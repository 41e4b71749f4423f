"""Schema ordering, c3 masks, and validation."""

import math

import pytest

from repro.model.attributes import AttributeSpec
from repro.model.constraints import Constraint, Operator
from repro.model.events import Event
from repro.model.schema import Schema, SchemaError, stock_schema
from repro.model.subscriptions import Subscription
from repro.model.types import AttributeType


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(SchemaError):
            Schema([])

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            Schema(
                [
                    AttributeSpec("x", AttributeType.FLOAT),
                    AttributeSpec("x", AttributeType.STRING),
                ]
            )

    def test_of_preserves_keyword_order(self):
        schema = Schema.of(b=AttributeType.FLOAT, a=AttributeType.STRING)
        assert schema.names == ("b", "a")
        assert schema.position("b") == 0

    def test_stock_schema_order(self):
        schema = stock_schema()
        assert schema.names == (
            "exchange", "symbol", "when", "price", "volume", "high", "low",
        )
        assert len(schema) == 7


class TestLookups:
    def test_position_and_spec(self, schema):
        assert schema.position("exchange") == 0
        assert schema.position("low") == 6
        assert schema.spec("price").type is AttributeType.FLOAT

    def test_unknown_attribute(self, schema):
        with pytest.raises(SchemaError):
            schema.position("dividend")
        with pytest.raises(SchemaError):
            schema.type_of("dividend")

    def test_family_partition(self, schema):
        assert set(schema.arithmetic_names()) == {"when", "price", "volume", "high", "low"}
        assert set(schema.string_names()) == {"exchange", "symbol"}


class TestMasks:
    def test_mask_bits(self, schema):
        mask = schema.attribute_mask(["exchange", "price"])
        assert mask == (1 << 0) | (1 << 3)

    def test_mask_of_subscription(self, schema, paper_subscriptions):
        s1, _ = paper_subscriptions
        # S1 constrains exchange(0), symbol(1), price(3).
        assert schema.mask_of(s1) == 0b0001011

    def test_figure6_example(self):
        """A 7-attribute schema; constraints on attributes 3, 5 and 6
        (1-based, right-to-left) give mask 0b0110100."""
        schema = Schema(
            [AttributeSpec(f"a{i}", AttributeType.FLOAT) for i in range(7)]
        )
        mask = schema.attribute_mask(["a2", "a4", "a5"])  # 0-based positions
        assert mask == 0b0110100

    def test_names_from_mask_roundtrip(self, schema):
        names = ["symbol", "volume", "low"]
        mask = schema.attribute_mask(names)
        assert schema.names_from_mask(mask) == sorted(names, key=schema.position)

    def test_names_from_mask_range_check(self, schema):
        with pytest.raises(SchemaError):
            schema.names_from_mask(1 << 7)
        with pytest.raises(SchemaError):
            schema.names_from_mask(-1)


class TestValidation:
    def test_valid_event(self, schema, paper_event):
        schema.validate_event(paper_event)  # should not raise

    def test_event_with_wrong_type(self, schema):
        event = Event.of(price=8)  # INTEGER, schema says FLOAT
        with pytest.raises(SchemaError):
            schema.validate_event(event)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_event_with_non_finite_value(self, schema, value):
        with pytest.raises(SchemaError, match="not finite"):
            schema.validate_event(Event.of(price=value))

    def test_event_with_unknown_attribute(self, schema):
        with pytest.raises(SchemaError):
            schema.validate_event(Event.of(dividend=1.5))

    def test_constraint_type_mismatch(self, schema):
        constraint = Constraint("price", AttributeType.INTEGER, Operator.GT, 5)
        with pytest.raises(SchemaError):
            schema.validate_constraint(constraint)

    def test_subscription_validation(self, schema, paper_subscriptions):
        for subscription in paper_subscriptions:
            schema.validate_subscription(subscription)

    def test_equality(self):
        assert stock_schema() == stock_schema()
        assert hash(stock_schema()) == hash(stock_schema())
