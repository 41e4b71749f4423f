"""Indexed removal vs the scans it replaced.

:meth:`SACS.remove` visits only the rows its reverse map names.  The
reference below is the scan that tests every row.  Hypothesis drives both
through the same random insert / remove / merge / copy sequences, under
EXACT and COARSE, and asserts equal rows after every step and equal
return values from every removal.

:meth:`BrokerSummary.remove` visits only the attributes the id's ``c3``
mask names.  Its reference is the scan that calls ``remove`` on every
attribute structure, driven the same way through add / merge / remove
sequences over a schema with string and arithmetic attributes.

``COMPILED_DIFF_EXAMPLES=500 pytest tests/summary/test_sacs_remove_differential.py``
raises the budget.
"""

import os

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.model.constraints import Constraint, Operator
from repro.model.ids import SubscriptionId
from repro.model.schema import Schema
from repro.model.subscriptions import Subscription
from repro.model.types import AttributeType
from repro.summary.patterns import ConjunctionPattern, pattern_for_constraint
from repro.summary.precision import Precision
from repro.summary.sacs import SACS
from repro.summary.summary import BrokerSummary

EXAMPLES = int(os.environ.get("COMPILED_DIFF_EXAMPLES", "100"))


class ScanningSACS(SACS):
    """The row scan: every row is tested for the id."""

    __slots__ = ()

    def remove(self, sid):
        found = False
        for table in (self._literals, self._general):
            for key in list(table):
                row = table[key]
                if sid in row.ids:
                    found = True
                    row.ids.discard(sid)
                    if not row.ids:
                        del table[key]
        return found

    def copy(self):
        clone = ScanningSACS(self.precision)
        source = SACS.copy(self)
        clone._literals, clone._general = source._literals, source._general
        # Inserts still maintain the inherited map; only removal ignores it.
        clone._rows_of = source._rows_of
        return clone


_OPS = st.sampled_from(
    [Operator.EQ, Operator.NE, Operator.PREFIX, Operator.SUFFIX,
     Operator.CONTAINS, Operator.MATCHES]
)
_PATTERNS = st.builds(
    lambda op, operand: pattern_for_constraint(Constraint.string("s", op, operand)),
    _OPS,
    st.text(alphabet="ab*", max_size=3),
)
#: A small id space, so ids recur across rows, removals and merges.
_SIDS = st.builds(
    lambda local_id: SubscriptionId(broker=local_id % 2, local_id=local_id, attr_mask=1),
    st.integers(0, 7),
)
_ENTRIES = st.lists(
    st.tuples(
        st.one_of(_PATTERNS, st.lists(_PATTERNS, min_size=2, max_size=3).map(ConjunctionPattern)),
        st.frozensets(_SIDS, min_size=1, max_size=3),
    ),
    max_size=4,
)
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), _ENTRIES),
        st.tuples(st.just("remove"), _SIDS),
        st.tuples(st.just("merge"), _ENTRIES),
        st.tuples(st.just("copy"), st.none()),
    ),
    max_size=25,
)


def _filled(cls, precision, entries):
    sacs = cls(precision)
    for pattern, ids in entries:
        sacs.insert_pattern(pattern, set(ids))
    return sacs


def _rows(sacs):
    return [(row.pattern.key(), sorted(row.ids)) for row in sacs.rows()]


@settings(
    max_examples=EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(precision=st.sampled_from([Precision.EXACT, Precision.COARSE]), steps=_STEPS)
def test_indexed_remove_matches_the_row_scan(precision, steps):
    indexed = SACS(precision)
    scanning = ScanningSACS(precision)
    union = set()
    for action, argument in steps:
        if action == "insert":
            for pattern, ids in argument:
                indexed.insert_pattern(pattern, set(ids))
                scanning.insert_pattern(pattern, set(ids))
        elif action == "remove":
            assert indexed.remove(argument) == scanning.remove(argument)
        elif action == "merge":
            indexed.merge(_filled(SACS, precision, argument))
            scanning.merge(_filled(ScanningSACS, precision, argument))
        else:
            indexed, scanning = indexed.copy(), scanning.copy()
        assert _rows(indexed) == _rows(scanning)
        union = set()
        for row in scanning.rows():
            union |= row.ids
        assert indexed.all_ids() == union
    for sid in sorted(union):
        assert indexed.remove(sid) and scanning.remove(sid)
    assert indexed.is_empty and scanning.is_empty
    assert indexed.all_ids() == set()


class ScanningSummary(BrokerSummary):
    """The all-attribute scan: every structure is asked to drop the id."""

    def remove(self, sid):
        found = False
        for structures in (self._aacs, self._sacs):
            for name in list(structures):
                if structures[name].remove(sid):
                    found = True
                if structures[name].is_empty:
                    del structures[name]
        if found:
            self._generation += 1
        return found


_SCHEMA = Schema.of(
    s=AttributeType.STRING,
    x=AttributeType.FLOAT,
    t=AttributeType.STRING,
    y=AttributeType.INTEGER,
)
_ARITH_OPS = st.sampled_from(
    [Operator.EQ, Operator.NE, Operator.LT, Operator.LE, Operator.GT, Operator.GE]
)


def _constraint(name):
    if name in ("s", "t"):
        return st.builds(
            lambda op, operand: Constraint.string(name, op, operand),
            _OPS,
            st.text(alphabet="ab*", max_size=3),
        )
    attr_type = _SCHEMA.type_of(name)
    cast = float if attr_type is AttributeType.FLOAT else int
    return st.builds(
        lambda op, value: Constraint.arithmetic(name, op, cast(value), attr_type),
        _ARITH_OPS,
        st.integers(0, 4),
    )


@st.composite
def _entries(draw):
    """``(sid, subscription)`` pairs; the id's c3 mask is the subscription's."""
    entries = []
    for _ in range(draw(st.integers(0, 4))):
        names = draw(st.sets(st.sampled_from(["s", "x", "t", "y"]), min_size=1))
        constraints = []
        for name in sorted(names):
            constraints += draw(st.lists(_constraint(name), min_size=1, max_size=2))
        subscription = Subscription(constraints)
        local_id = draw(st.integers(0, 7))
        sid = SubscriptionId(
            broker=local_id % 2, local_id=local_id,
            attr_mask=_SCHEMA.mask_of(subscription),
        )
        entries.append((sid, subscription))
    return entries


_SUMMARY_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), _entries()),
        # An index into the ids added so far (or, past them, a fresh id
        # that was never added, with any mask).
        st.tuples(st.just("remove"), st.integers(0, 40)),
        st.tuples(st.just("merge"), _entries()),
    ),
    max_size=25,
)


def _summary_rows(summary):
    rows = {}
    for name, aacs in summary.arithmetic_structures().items():
        rows[name] = (
            [(row.interval, sorted(row.ids)) for row in aacs.range_rows()],
            [(value, sorted(ids)) for value, ids in aacs.equality_rows()],
        )
    for name, sacs in summary.string_structures().items():
        rows[name] = _rows(sacs)
    return rows


@settings(
    max_examples=EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    precision=st.sampled_from([Precision.EXACT, Precision.COARSE]),
    steps=_SUMMARY_STEPS,
)
def test_masked_summary_remove_matches_the_attribute_scan(precision, steps):
    masked = BrokerSummary(_SCHEMA, precision)
    scanning = ScanningSummary(_SCHEMA, precision)
    added = []
    for action, argument in steps:
        if action == "add":
            for sid, subscription in argument:
                masked.add(subscription, sid)
                scanning.add(subscription, sid)
                added.append(sid)
        elif action == "merge":
            other = BrokerSummary(_SCHEMA, precision)
            for sid, subscription in argument:
                other.add(subscription, sid)
                added.append(sid)
            masked.merge(other)
            scanning.merge(other)
        else:
            if argument < len(added):
                sid = added[argument]
            else:
                sid = SubscriptionId(
                    broker=0, local_id=argument, attr_mask=argument % 15 + 1
                )
            assert masked.remove(sid) == scanning.remove(sid)
        assert _summary_rows(masked) == _summary_rows(scanning)
        assert masked.all_ids() == scanning.all_ids()
    for sid in sorted(scanning.all_ids()):
        assert masked.remove(sid) and scanning.remove(sid)
    assert masked.is_empty and scanning.is_empty
