"""Differential harness: OwnerIndex ≡ Subscription.matches.

The owner index is what a broker's delivery trusts instead of re-checking
each candidate, so it must be indistinguishable from the ground-truth
matcher — over the whole population and inside any candidate mask — while
subscriptions come and go and slots are reused.  Hypothesis draws
populations from small value pools, so bounds land on existing cuts (open
and closed), equality points fall inside and outside rows, ``!=`` splits
lines in two, same-attribute conjunctions (contradictory ones included)
and every string operator are common, and events often omit constrained
attributes.  A seeded suite takes the masks past 64 bits, and a churn run
checks the index stays as small as its live population.

The example budget is configurable for CI's high-budget differential job:
``COMPILED_DIFF_EXAMPLES=500 pytest tests/summary/test_owner_index.py``
"""

import os
import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.model.attributes import AttributeSpec
from repro.model.constraints import (
    ARITHMETIC_OPERATORS,
    STRING_OPERATORS,
    Constraint,
    Operator,
)
from repro.model.events import Event
from repro.model.schema import Schema
from repro.model.subscriptions import Subscription
from repro.model.types import AttributeType
from repro.summary.maintenance import SubscriptionStore

EXAMPLES = int(os.environ.get("COMPILED_DIFF_EXAMPLES", "100"))

DIFF_SETTINGS = settings(
    max_examples=EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

SCHEMA = Schema([
    AttributeSpec("f", AttributeType.FLOAT),
    AttributeSpec("i", AttributeType.INTEGER),
    AttributeSpec("s", AttributeType.STRING),
    AttributeSpec("t", AttributeType.STRING),
])

#: Constraint operands; events also take the values between them.
_FLOATS = [-1.0, 0.0, 0.5, 1.0, 2.5]
_EVENT_FLOATS = _FLOATS + [-3.0, 0.25, 0.75, 1.5, 9.0]
_INTS = list(range(-2, 3))
_EVENT_INTS = list(range(-4, 5))
_WORDS = st.text(alphabet="ab", max_size=3)
_GLOBS = st.text(alphabet="ab*", min_size=1, max_size=4)
_ARITH_OPS = sorted(ARITHMETIC_OPERATORS, key=lambda op: op.value)
_STRING_OPS = sorted(STRING_OPERATORS, key=lambda op: op.value)


@st.composite
def constraints_on(draw, name):
    attr_type = SCHEMA.type_of(name)
    if attr_type.is_string:
        op = draw(st.sampled_from(_STRING_OPS))
        operand = draw(_GLOBS if op is Operator.MATCHES else _WORDS)
    else:
        op = draw(st.sampled_from(_ARITH_OPS))
        operand = draw(st.sampled_from(
            _INTS if attr_type is AttributeType.INTEGER else _FLOATS
        ))
    return Constraint(name=name, attr_type=attr_type, operator=op, value=operand)


@st.composite
def subscriptions(draw):
    names = draw(st.lists(
        st.sampled_from(SCHEMA.names), min_size=1, max_size=3, unique=True
    ))
    constraints = []
    for name in names:
        # Up to three constraints on one attribute: ranges, NE holes,
        # pattern conjunctions and contradictions.
        constraints += draw(st.lists(constraints_on(name), min_size=1, max_size=3))
    return Subscription(constraints)


@st.composite
def events(draw):
    values = {}
    for name in SCHEMA.names:
        if draw(st.integers(0, 4)) == 0:
            continue  # a missing attribute fails every constraint on it
        attr_type = SCHEMA.type_of(name)
        if attr_type.is_string:
            values[name] = (attr_type, draw(_WORDS))
        elif attr_type is AttributeType.INTEGER:
            values[name] = (attr_type, draw(st.sampled_from(_EVENT_INTS)))
        else:
            values[name] = (attr_type, draw(st.sampled_from(_EVENT_FLOATS)))
    return Event.from_pairs((n, typ, v) for n, (typ, v) in values.items())


def _assert_exact(store, event, candidates):
    """The index ≡ ``Subscription.matches``, in ``candidates`` and overall."""
    index = store.index
    truth = {sid for sid, sub in store.items() if sub.matches(event)}
    assert set(index.ids_of(index.match_within(event, -1))) == truth
    allowed = set(index.ids_of(candidates & ((1 << index.slot_count()) - 1)))
    assert set(index.ids_of(index.match_within(event, candidates))) == truth & allowed


def _assert_canonical(store):
    index = store.index
    assert index.canonical() == index.rebuilt(dict(store.items())).canonical()


@DIFF_SETTINGS
@given(
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("add"), subscriptions()),
            st.tuples(st.just("remove"), st.integers(0, 50)),
            st.tuples(st.just("readd"), st.integers(0, 50)),
        ),
        min_size=1,
        max_size=30,
    ),
    probes=st.lists(st.tuples(events(), st.integers(0, 2**40)), min_size=1, max_size=4),
)
def test_index_equals_ground_truth_under_churn(ops, probes):
    store = SubscriptionStore(SCHEMA, 0)
    live, gone = [], []
    for op, arg in ops:
        if op == "add":
            live.append((store.subscribe(arg), arg))
        elif op == "remove" and live:
            sid, sub = live.pop(arg % len(live))
            assert store.unsubscribe(sid) is sub
            gone.append(sub)
        elif op == "readd" and gone:
            # A fresh id for an old subscription: usually a reused slot.
            sub = gone.pop(arg % len(gone))
            live.append((store.subscribe(sub), sub))
        assert len(store.index) == len(live)
        for event, draw in probes:
            _assert_exact(store, event, draw & ((1 << store.index.slot_count()) - 1))
    _assert_canonical(store)


def test_cuts_on_shared_bounds():
    """Open and closed bounds on one value, EQ points inside and outside
    rows, and a NE hole over the same cut."""
    store = SubscriptionStore(SCHEMA, 0)
    texts = [
        [("f", Operator.GE, 1.0)], [("f", Operator.GT, 1.0)],
        [("f", Operator.LE, 1.0)], [("f", Operator.LT, 1.0)],
        [("f", Operator.EQ, 1.0)], [("f", Operator.EQ, 7.0)],
        [("f", Operator.NE, 1.0)],
        [("f", Operator.GT, 0.0), ("f", Operator.LE, 1.0)],
        [("f", Operator.GT, 2.0), ("f", Operator.LT, 1.0)],  # contradictory
        [("f", Operator.GE, 1.0), ("f", Operator.LE, 1.0)],  # a point
    ]
    sids = [
        store.subscribe(Subscription(
            Constraint.arithmetic(name, op, value) for name, op, value in spec
        ))
        for spec in texts
    ]
    for value in (-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 7.0):
        _assert_exact(store, Event.of(f=value), -1)
    _assert_exact(store, Event.of(i=1), -1)  # f missing: nothing matches
    for sid in sids[::2]:
        store.unsubscribe(sid)
        for value in (0.0, 1.0, 1.5, 7.0):
            _assert_exact(store, Event.of(f=value), -1)
        _assert_canonical(store)


def test_string_operators_and_conjunctions():
    store = SubscriptionStore(SCHEMA, 0)
    specs = [
        [("s", Operator.EQ, "ab")], [("s", Operator.NE, "ab")],
        [("s", Operator.PREFIX, "a")], [("s", Operator.SUFFIX, "b")],
        [("s", Operator.CONTAINS, "ba")], [("s", Operator.MATCHES, "a*b")],
        [("s", Operator.MATCHES, "ab")], [("s", Operator.CONTAINS, "")],
        [("s", Operator.PREFIX, "a"), ("s", Operator.SUFFIX, "a")],
        [("s", Operator.EQ, "ab"), ("s", Operator.PREFIX, "a")],
        [("s", Operator.EQ, "ab"), ("s", Operator.EQ, "ba")],  # contradictory
        [("s", Operator.EQ, ""), ("t", Operator.NE, "a")],
    ]
    for spec in specs:
        store.subscribe(Subscription(
            Constraint.string(name, op, value) for name, op, value in spec
        ))
    for value in ("", "a", "b", "ab", "ba", "aba", "abb", "bab"):
        _assert_exact(store, Event.of(s=value), -1)
        _assert_exact(store, Event.of(s=value, t="b"), -1)


def test_more_than_64_slots():
    """Masks run to hundreds of bits: matches land above bit 63, and
    removals and re-adds reuse slots all over the range."""
    rng = random.Random(7)
    store = SubscriptionStore(SCHEMA, 0)

    def draw_subscription():
        constraints = []
        for name in rng.sample(SCHEMA.names, rng.randint(1, 3)):
            attr_type = SCHEMA.type_of(name)
            for _ in range(rng.randint(1, 2)):
                if attr_type.is_string:
                    op = rng.choice(_STRING_OPS)
                    value = rng.choice(["a", "ab", "ba", "a*b", "b"])
                    if op is not Operator.MATCHES:
                        value = value.replace("*", "")
                    constraints.append(Constraint.string(name, op, value))
                else:
                    pool = _INTS if attr_type is AttributeType.INTEGER else _FLOATS
                    constraints.append(Constraint(
                        name, attr_type, rng.choice(_ARITH_OPS), rng.choice(pool)
                    ))
        return Subscription(constraints)

    def draw_event():
        return Event.from_pairs(
            (name, SCHEMA.type_of(name), {
                "f": lambda: rng.choice(_EVENT_FLOATS),
                "i": lambda: rng.choice(_EVENT_INTS),
                "s": lambda: rng.choice(["", "a", "ab", "ba", "aab", "b"]),
                "t": lambda: rng.choice(["a", "b", "ab"]),
            }[name]())
            for name in SCHEMA.names if rng.random() < 0.85
        )

    live = [store.subscribe(draw_subscription()) for _ in range(300)]
    for round_ in range(4):
        for _ in range(40):
            event = draw_event()
            _assert_exact(store, event, rng.getrandbits(store.index.slot_count()))
        rng.shuffle(live)
        for sid in live[:120]:
            store.unsubscribe(sid)
        live = live[120:] + [store.subscribe(draw_subscription()) for _ in range(120)]
        assert store.index.slot_count() == 300
        _assert_canonical(store)
    assert max(
        mask.bit_length() for mask in store.index.members().values()
    ) > 64


def test_bounded_under_churn():
    """2,000 unsubscribe/subscribe cycles at a constant live population of
    50: slots are reused, cuts merge when they stop separating masks, and
    dead patterns leave."""
    rng = random.Random(3)
    store = SubscriptionStore(SCHEMA, 0)

    def draw_subscription():
        lo = rng.randint(0, 400) / 4
        return Subscription([
            Constraint.arithmetic("f", Operator.GT, lo),
            Constraint.arithmetic("f", Operator.LE, lo + rng.randint(1, 40) / 4),
            Constraint.arithmetic("i", Operator.NE, rng.randint(-50, 50), AttributeType.INTEGER),
            Constraint.string("s", rng.choice([Operator.EQ, Operator.PREFIX]),
                              f"w{rng.randint(0, 500)}"),
        ])

    live = [store.subscribe(draw_subscription()) for _ in range(50)]
    for _ in range(2000):
        store.unsubscribe(live.pop(rng.randrange(len(live))))
        live.append(store.subscribe(draw_subscription()))
        index = store.index
        assert index.slot_count() <= 50
        sizes = index.sizes()
        # Every live subscription holds one interval on ``f`` and two (the
        # NE hole's sides) on ``i``.
        assert sizes["f"]["rows"] <= 2 * 50 + 1
        assert sizes["i"]["rows"] <= 2 * 100 + 1
        assert sizes["s"]["entries"] <= 50
    _assert_canonical(store)
    for live_sid in live:
        store.unsubscribe(live_sid)
    assert store.index.sizes() == {} and store.index.members() == {}
