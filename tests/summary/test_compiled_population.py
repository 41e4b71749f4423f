"""Large-population differential: CompiledMatcher ≡ match_event ≡/⊇ naive.

The Hypothesis differential (``test_compiled_differential.py``) draws at
most a few dozen subscriptions, so every slot mask of the compiled matcher
fits in one machine word.  This suite holds ~1,500 subscriptions from
three brokers spread over dozens of ``c3`` signatures, so masks run to
hundreds of bits, matches land in every word, and a bug above bit 63 shows.
The hub summary goes through ``merge``, ``remove`` and a re-``merge``; after
each step 200 events must match identically on the compiled and the
reference path, equal the naive ground truth under EXACT precision and
contain it under COARSE.
"""

import random

import pytest

from repro.model.attributes import AttributeSpec
from repro.model.constraints import Constraint, Operator
from repro.model.events import Event
from repro.model.ids import SubscriptionId
from repro.model.schema import Schema, SchemaError
from repro.model.subscriptions import Subscription
from repro.model.types import AttributeType
from repro.summary import (
    BrokerSummary,
    CompiledMatcher,
    NaiveMatcher,
    Precision,
    match_event,
)

BROKERS = 3
PER_BROKER = 500
EVENTS = 200

SCHEMA = Schema([
    AttributeSpec("a0", AttributeType.INTEGER),
    AttributeSpec("a1", AttributeType.FLOAT),
    AttributeSpec("a2", AttributeType.INTEGER),
    AttributeSpec("s0", AttributeType.STRING),
    AttributeSpec("s1", AttributeType.STRING),
    AttributeSpec("s2", AttributeType.STRING),
])
_WORDS = ["ab", "abc", "ba", "bca", "cab", "cc", "a", "acb"]
_STRING_OPS = [Operator.EQ, Operator.PREFIX, Operator.SUFFIX, Operator.CONTAINS,
               Operator.NE]


def _arith_constraints(rng, name, attr_type):
    def value():
        raw = rng.randint(0, 20)
        return raw if attr_type is AttributeType.INTEGER else raw / 2
    shape = rng.random()
    if shape < 0.5:  # a range
        lo, hi = sorted((value(), value()))
        return [Constraint(name, attr_type, Operator.GE, lo),
                Constraint(name, attr_type, Operator.LE, hi)]
    op = rng.choice([Operator.EQ, Operator.LT, Operator.GT, Operator.NE])
    return [Constraint(name, attr_type, op, value())]


def _subscription(rng):
    names = rng.sample(SCHEMA.names, rng.randint(1, 3))
    constraints = []
    for name in names:
        attr_type = SCHEMA.type_of(name)
        if attr_type.is_string:
            op = rng.choice(_STRING_OPS)
            constraints.append(Constraint(name, attr_type, op, rng.choice(_WORDS)))
        else:
            constraints.extend(_arith_constraints(rng, name, attr_type))
    return Subscription(constraints)


def _event(rng):
    values = {}
    for name in SCHEMA.names:
        if rng.random() < 0.15:
            continue  # events may omit attributes
        attr_type = SCHEMA.type_of(name)
        if attr_type.is_string:
            values[name] = rng.choice(_WORDS)
        elif attr_type is AttributeType.INTEGER:
            values[name] = rng.randint(0, 20)
        else:
            values[name] = rng.randint(0, 40) / 4
    return Event.of(**values)


@pytest.fixture(scope="module")
def population():
    """Subscriptions per broker, events, and the naive ground truth of the
    whole population per event (shared by both precisions)."""
    rng = random.Random(20041)
    naive = NaiveMatcher()
    per_broker = []
    for broker in range(BROKERS):
        subscriptions = {}
        for local_id in range(PER_BROKER):
            subscription = _subscription(rng)
            sid = SubscriptionId(broker, local_id, SCHEMA.mask_of(subscription))
            naive.add(subscription, sid)
            subscriptions[sid] = subscription
        per_broker.append(subscriptions)
    events = [_event(rng) for _ in range(EVENTS)]
    truths = [naive.match(event) for event in events]
    removed = set(rng.sample(sorted(naive.subscriptions()), 400))
    return per_broker, events, truths, removed


def _check(summary, events, truths, precision):
    compiled = CompiledMatcher(summary)
    stats = compiled.stats()
    assert stats.slots == len(summary.all_ids())
    assert stats.signatures >= 10
    matched_total = 0
    high_slots = 0
    slot_of = {sid: slot for slot, sid in enumerate(compiled._ids)}
    for event, truth in zip(events, truths):
        matched = compiled.match(event)
        assert matched == match_event(summary, event)
        if precision is Precision.EXACT:
            assert matched == truth
        else:
            assert matched >= truth
        matched_total += len(matched)
        high_slots += sum(1 for sid in matched if slot_of[sid] >= 64)
    # The population is dense enough that matches land well above bit 63.
    assert matched_total > 10 * len(events)
    assert high_slots > 5 * len(events)


@pytest.mark.parametrize("precision", list(Precision))
def test_large_population_merge_remove_remerge(population, precision):
    per_broker, events, truths, removed = population
    summaries = []
    for subscriptions in per_broker:
        summary = BrokerSummary(SCHEMA, precision)
        for sid, subscription in subscriptions.items():
            summary.add(subscription, sid)
        summaries.append(summary)

    hub = BrokerSummary(SCHEMA, precision)
    for summary in summaries:
        hub.merge(summary)
    _check(hub, events, truths, precision)

    for sid in removed:
        assert hub.remove(sid)
    _check(hub, events, [truth - removed for truth in truths], precision)

    # Re-merge broker 1: its removed subscriptions come back.
    hub.merge(summaries[1])
    gone = {sid for sid in removed if sid.broker != 1}
    _check(hub, events, [truth - gone for truth in truths], precision)


def test_non_numeric_value_raises_and_matcher_stays_usable():
    """A non-numeric arithmetic value raises SchemaError (as the reference
    path does) and leaves no state behind: the next event matches as if
    the failed one never happened."""
    summary = BrokerSummary(SCHEMA, Precision.EXACT)
    cheap = Subscription([Constraint("a0", AttributeType.INTEGER, Operator.LT, 5)])
    both = Subscription([
        Constraint("a0", AttributeType.INTEGER, Operator.LT, 5),
        Constraint("s0", AttributeType.STRING, Operator.EQ, "ab"),
    ])
    sids = [SubscriptionId(0, i, SCHEMA.mask_of(s)) for i, s in enumerate((cheap, both))]
    summary.add(cheap, sids[0])
    summary.add(both, sids[1])
    compiled = CompiledMatcher(summary)
    bad = Event.from_pairs([
        ("s0", AttributeType.STRING, "ab"),
        ("a0", AttributeType.STRING, "three"),
    ])
    with pytest.raises(SchemaError, match="a0.*is not numeric"):
        compiled.match(bad)
    with pytest.raises(SchemaError):
        match_event(summary, bad)
    good = Event.of(a0=1)
    assert compiled.match(good) == match_event(summary, good) == {sids[0]}
    assert compiled.match(Event.of(a0=1, s0="ab")) == set(sids)
