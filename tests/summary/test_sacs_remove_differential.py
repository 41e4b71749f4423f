"""SACS removal through the id -> row-key map vs the row scan it replaced.

:meth:`SACS.remove` visits only the rows its reverse map names.  The
reference below is the scan that tests every row.  Hypothesis drives both
through the same random insert / remove / merge / copy sequences, under
EXACT and COARSE, and asserts equal rows after every step and equal
return values from every removal.

``COMPILED_DIFF_EXAMPLES=500 pytest tests/summary/test_sacs_remove_differential.py``
raises the budget.
"""

import os

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.model.constraints import Constraint, Operator
from repro.model.ids import SubscriptionId
from repro.summary.patterns import ConjunctionPattern, pattern_for_constraint
from repro.summary.precision import Precision
from repro.summary.sacs import SACS

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
