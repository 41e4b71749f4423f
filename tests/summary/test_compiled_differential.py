"""Differential harness: CompiledMatcher ≡ match_event ≡/⊇ NaiveMatcher.

The compiled fast path must be *indistinguishable* from the reference
Algorithm-1 walk for any schema, subscription population and event — and
for EXACT precision both must equal the subscription-centric ground truth,
while COARSE must report a superset of it.  Hypothesis drives randomly
drawn schemas (mixed arithmetic/string attributes), subscriptions (random
operators, conjunctions, contradictions) and events (including attributes
no subscription constrains and attributes outside the schema), plus
interleaved ``add``/``remove``/``merge`` sequences that exercise the
generation-counter invalidation of compiled snapshots.

The example budget is configurable for CI's high-budget differential job:
``COMPILED_DIFF_EXAMPLES=500 pytest tests/summary/test_compiled_differential.py``
"""

import os

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.model.attributes import AttributeSpec
from repro.model.constraints import (
    ARITHMETIC_OPERATORS,
    STRING_OPERATORS,
    Constraint,
    Operator,
)
from repro.model.events import Event
from repro.model.ids import SubscriptionId
from repro.model.schema import Schema
from repro.model.subscriptions import Subscription
from repro.model.types import AttributeType
from repro.summary import (
    BrokerSummary,
    CompiledMatcher,
    NaiveMatcher,
    Precision,
    match_event,
)
from repro.workload import WorkloadConfig, WorkloadGenerator

EXAMPLES = int(os.environ.get("COMPILED_DIFF_EXAMPLES", "100"))

DIFF_SETTINGS = settings(
    max_examples=EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

# -- strategies ---------------------------------------------------------------

_TYPES = [AttributeType.FLOAT, AttributeType.INTEGER, AttributeType.STRING]
#: Small value pools so collisions (equality hits, boundary hits) are common.
_INTS = st.integers(-4, 4)
_FLOATS = st.sampled_from([-2.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.5, 4.0])
_WORDS = st.text(alphabet="abc", max_size=4)
_GLOBS = st.text(alphabet="ab*", min_size=1, max_size=4)

_ARITH_OPS = sorted(ARITHMETIC_OPERATORS, key=lambda op: op.value)
_STRING_OPS = sorted(STRING_OPERATORS, key=lambda op: op.value)


@st.composite
def schemas(draw):
    types = draw(st.lists(st.sampled_from(_TYPES), min_size=1, max_size=5))
    return Schema(AttributeSpec(f"a{i}", typ) for i, typ in enumerate(types))


@st.composite
def constraints_for(draw, name, attr_type):
    if attr_type.is_string:
        op = draw(st.sampled_from(_STRING_OPS))
        operand = draw(_GLOBS if op is Operator.MATCHES else _WORDS)
        return Constraint(name=name, attr_type=attr_type, operator=op, value=operand)
    op = draw(st.sampled_from(_ARITH_OPS))
    value = draw(_INTS if attr_type is AttributeType.INTEGER else _FLOATS)
    return Constraint(name=name, attr_type=attr_type, operator=op, value=value)


@st.composite
def subscriptions_for(draw, schema):
    names = draw(
        st.lists(
            st.sampled_from(schema.names), min_size=1, max_size=len(schema), unique=True
        )
    )
    constraints = []
    for name in names:
        for _ in range(draw(st.integers(1, 2))):
            constraints.append(draw(constraints_for(name, schema.type_of(name))))
    return Subscription(constraints)


@st.composite
def events_for(draw, schema):
    names = draw(
        st.lists(
            st.sampled_from(schema.names), min_size=0, max_size=len(schema), unique=True
        )
    )
    pairs = []
    for name in names:
        attr_type = schema.type_of(name)
        if attr_type.is_string:
            value = draw(_WORDS)
        elif attr_type is AttributeType.INTEGER:
            value = draw(_INTS)
        else:
            value = float(draw(_FLOATS))
        pairs.append((name, attr_type, value))
    if draw(st.booleans()):
        # An attribute outside the schema: events may carry attributes no
        # broker has ever summarized; both matchers must ignore it.
        pairs.append(("zz_extra", AttributeType.STRING, draw(_WORDS)))
    return Event.from_pairs(pairs)


def _populate(schema, subscriptions, precision, broker=0, first_local=0):
    summary = BrokerSummary(schema, precision)
    naive = NaiveMatcher()
    sids = []
    for offset, subscription in enumerate(subscriptions):
        sid = SubscriptionId(broker, first_local + offset, schema.mask_of(subscription))
        summary.add(subscription, sid)
        naive.add(subscription, sid)
        sids.append(sid)
    return summary, naive, sids


# -- the three-way differential ----------------------------------------------


@DIFF_SETTINGS
@given(data=st.data(), precision=st.sampled_from(list(Precision)))
def test_compiled_equals_reference(data, precision):
    """CompiledMatcher.match ≡ match_event on any summary, any event."""
    schema = data.draw(schemas())
    subs = data.draw(st.lists(subscriptions_for(schema), max_size=8))
    summary, _naive, _sids = _populate(schema, subs, precision)
    compiled = CompiledMatcher(summary)
    for _ in range(5):
        event = data.draw(events_for(schema))
        assert compiled.match(event) == match_event(summary, event)


@DIFF_SETTINGS
@given(data=st.data())
def test_exact_compiled_equals_naive(data):
    """For EXACT precision the compiled path equals the ground truth."""
    schema = data.draw(schemas())
    subs = data.draw(st.lists(subscriptions_for(schema), max_size=8))
    summary, naive, _sids = _populate(schema, subs, Precision.EXACT)
    compiled = CompiledMatcher(summary)
    for _ in range(5):
        event = data.draw(events_for(schema))
        matched = compiled.match(event)
        assert matched == naive.match(event)
        assert matched == match_event(summary, event)


@DIFF_SETTINGS
@given(data=st.data())
def test_coarse_compiled_superset_of_naive(data):
    """For COARSE precision the compiled path reports the same superset of
    ground truth as the reference matcher (false positives included)."""
    schema = data.draw(schemas())
    subs = data.draw(st.lists(subscriptions_for(schema), max_size=8))
    summary, naive, _sids = _populate(schema, subs, Precision.COARSE)
    compiled = CompiledMatcher(summary)
    for _ in range(5):
        event = data.draw(events_for(schema))
        matched = compiled.match(event)
        assert matched >= naive.match(event)
        assert matched == match_event(summary, event)


@DIFF_SETTINGS
@given(data=st.data(), precision=st.sampled_from(list(Precision)))
def test_interleaved_mutations_stay_equivalent(data, precision):
    """add/remove/merge sequences: one CompiledMatcher instance survives
    arbitrary interleavings via generation invalidation and always agrees
    with the reference matcher (and the naive oracle) afterwards."""
    schema = data.draw(schemas())
    initial = data.draw(st.lists(subscriptions_for(schema), max_size=4))
    summary, naive, sids = _populate(schema, initial, precision)
    compiled = CompiledMatcher(summary)
    next_local = len(sids)

    def check():
        for _ in range(3):
            event = data.draw(events_for(schema))
            matched = compiled.match(event)
            assert matched == match_event(summary, event)
            truth = naive.match(event)
            if precision is Precision.EXACT:
                assert matched == truth
            else:
                assert matched >= truth

    check()
    for op in data.draw(
        st.lists(st.sampled_from(["add", "remove", "merge"]), max_size=6)
    ):
        if op == "add":
            subscription = data.draw(subscriptions_for(schema))
            sid = SubscriptionId(0, next_local, schema.mask_of(subscription))
            next_local += 1
            summary.add(subscription, sid)
            naive.add(subscription, sid)
            sids.append(sid)
        elif op == "remove" and sids:
            index = data.draw(st.integers(0, len(sids) - 1))
            sid = sids.pop(index)
            summary.remove(sid)
            naive.remove(sid)
        elif op == "merge":
            extra = data.draw(st.lists(subscriptions_for(schema), max_size=3))
            other, _other_naive, other_sids = _populate(
                schema, extra, precision, broker=1, first_local=next_local
            )
            next_local += len(other_sids)
            summary.merge(other)
            for sid, subscription in zip(other_sids, extra):
                naive.add(subscription, sid)
            sids.extend(other_sids)
        check()


@DIFF_SETTINGS
@given(data=st.data(), precision=st.sampled_from(list(Precision)))
def test_match_many_equals_per_event_match(data, precision):
    """The batch API equals per-event matching."""
    schema = data.draw(schemas())
    subs = data.draw(st.lists(subscriptions_for(schema), max_size=6))
    summary, _naive, _sids = _populate(schema, subs, precision)
    events = [data.draw(events_for(schema)) for _ in range(4)]
    events = events + events  # equal events in one batch match alike
    expected = [match_event(summary, event) for event in events]
    assert CompiledMatcher(summary).match_many(events) == expected


# -- Table-2 workload differential (realistic shapes) ------------------------


@settings(max_examples=max(10, EXAMPLES // 5), deadline=None)
@given(
    seed=st.integers(0, 1000),
    subsumption=st.sampled_from([0.1, 0.5, 0.9]),
    precision=st.sampled_from(list(Precision)),
)
def test_workload_differential(seed, subsumption, precision):
    """Same three-way agreement on the paper's Table-2 workload model."""
    generator = WorkloadGenerator(WorkloadConfig(subsumption=subsumption), seed=seed)
    schema = generator.schema
    summary = BrokerSummary(schema, precision)
    naive = NaiveMatcher()
    for local_id, subscription in enumerate(generator.subscriptions(30)):
        sid = SubscriptionId(0, local_id, schema.mask_of(subscription))
        summary.add(subscription, sid)
        naive.add(subscription, sid)
    compiled = CompiledMatcher(summary)
    for event in generator.events(20):
        matched = compiled.match(event)
        assert matched == match_event(summary, event)
        truth = naive.match(event)
        if precision is Precision.EXACT:
            assert matched == truth
        else:
            assert matched >= truth
