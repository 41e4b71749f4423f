"""SACS — String Attribute Constraint Summaries (paper section 3.1).

For each string attribute a broker keeps an array of pattern rows.  Each row
is a general constraint that may cover one or more of the received
constraints, with the id list of every subscription whose constraint it
absorbed:

* a new constraint covered by an existing row just adds its id to that
  row's list;
* a new constraint that is *more general* than existing rows replaces them
  (their id lists merge into the new row);
* otherwise a fresh row is appended.

In COARSE mode this collapsing is exactly the paper's summarization (ids in
a general row may over-match; the home broker re-checks).  In EXACT mode a
row is created per distinct pattern and only identical patterns share a row,
so the reported ids are exact.

Representation: equality (literal) patterns dominate realistic workloads —
the Table-2 generator makes ``1 - q`` of all string constraints unique
equalities — so literal rows live in a hash index keyed by their value,
while the (few) wildcard/NE/conjunction rows live in a small ordered table.
Inserting or matching a literal is O(#general rows) instead of O(#rows),
which is what makes sigma = 1000-scale experiments tractable.  A reverse
map from each id to the key of the row holding it makes removal touch only
that row (or those rows: COARSE keeps the constraints of one conjunction
apart, and merges can spread an id), instead of testing every row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Set, Tuple, Union

from repro.model.ids import SubscriptionId
from repro.summary.patterns import GlobPattern, StringPattern
from repro.summary.precision import Precision

__all__ = ["SACS", "PatternRow"]


@dataclass
class PatternRow:
    """One SACS row: a covering pattern plus its subscription-id list."""

    pattern: StringPattern
    ids: Set[SubscriptionId] = field(default_factory=set)

    def __str__(self) -> str:
        return f"{self.pattern.wire_text()!r} -> {sorted(self.ids)}"


def _is_literal(pattern: StringPattern) -> bool:
    return isinstance(pattern, GlobPattern) and pattern.is_literal


#: A row's key: a literal row's value (``str``) or a general row's
#: ``pattern.key()`` (a tuple).
RowKey = Union[str, Tuple]


class SACS:
    """The per-attribute string constraint summary."""

    __slots__ = ("precision", "_literals", "_general", "_rows_of")

    def __init__(self, precision: Precision = Precision.COARSE):
        self.precision = precision
        #: literal (pure equality) rows, keyed by their value
        self._literals: Dict[str, PatternRow] = {}
        #: wildcard / not-equals / conjunction rows, keyed by canonical form
        self._general: Dict[Tuple, PatternRow] = {}
        #: id -> the key of the row holding it, or a frozenset of keys when
        #: it sits in several rows.  Exactly the ids of the rows.
        self._rows_of: Dict[SubscriptionId, Union[RowKey, FrozenSet[RowKey]]] = {}

    # -- introspection ------------------------------------------------------

    @property
    def n_r(self) -> int:
        """Number of pattern rows (the paper's ``nr``)."""
        return len(self._literals) + len(self._general)

    @property
    def is_empty(self) -> bool:
        return not self._literals and not self._general

    def rows(self) -> Tuple[PatternRow, ...]:
        """All rows, in a deterministic order (literals first, by value)."""
        literal_rows = [self._literals[value] for value in sorted(self._literals)]
        general_rows = [self._general[key] for key in sorted(self._general)]
        return tuple(literal_rows + general_rows)

    def all_ids(self) -> Set[SubscriptionId]:
        return set(self._rows_of)

    def id_list_entries(self) -> int:
        """Total id-list entries across rows — the ``Ls`` term of eq. (2)."""
        return sum(len(row.ids) for row in self._literals.values()) + sum(
            len(row.ids) for row in self._general.values()
        )

    def value_bytes(self) -> int:
        """Total pattern text bytes — the ``ssv`` term of eq. (2)."""
        return sum(len(row.pattern.wire_text()) for row in self.rows())

    # -- insertion -----------------------------------------------------------

    def insert(self, pattern: StringPattern, sid: SubscriptionId) -> None:
        self.insert_pattern(pattern, {sid})

    def insert_pattern(self, pattern: StringPattern, ids: Set[SubscriptionId]) -> None:
        if not ids:
            return
        if self.precision is Precision.COARSE:
            self._insert_coarse(pattern, set(ids))
        else:
            self._insert_exact(pattern, set(ids))

    def _insert_coarse(self, pattern: StringPattern, ids: Set[SubscriptionId]) -> None:
        if _is_literal(pattern):
            value = pattern.pieces[0]  # type: ignore[union-attr]
            row = self._literals.get(value)
            if row is not None:
                row.ids |= ids
                self._note(ids, value)
                return
            # Covered by an existing general row?  For a literal, coverage
            # is simply whether the row's pattern matches the value.
            for general_key, general_row in self._general.items():
                if general_row.pattern.matches(value):
                    general_row.ids |= ids
                    self._note(ids, general_key)
                    return
            self._literals[value] = PatternRow(pattern, ids)
            self._note(ids, value)
            return
        # General pattern.  Covered by an existing, more general row?
        key = pattern.key()
        existing = self._general.get(key)
        if existing is not None:
            existing.ids |= ids
            self._note(ids, key)
            return
        for general_key, general_row in self._general.items():
            if general_row.pattern.covers(pattern):
                general_row.ids |= ids
                self._note(ids, general_key)
                return
        # More general than some existing rows: substitute them, absorbing
        # their id lists (paper: "the current is substituted by the new").
        merged = set(ids)
        for other_key in list(self._general):
            if pattern.covers(self._general[other_key].pattern):
                absorbed = self._general.pop(other_key).ids
                self._move(absorbed, other_key, key)
                merged |= absorbed
        for value in list(self._literals):
            if pattern.matches(value):
                absorbed = self._literals.pop(value).ids
                self._move(absorbed, value, key)
                merged |= absorbed
        self._general[key] = PatternRow(pattern, merged)
        self._note(ids, key)

    def _insert_exact(self, pattern: StringPattern, ids: Set[SubscriptionId]) -> None:
        # EXACT: only *identical* patterns share a row.
        if _is_literal(pattern):
            value = pattern.pieces[0]  # type: ignore[union-attr]
            row = self._literals.get(value)
            if row is not None:
                row.ids |= ids
            else:
                self._literals[value] = PatternRow(pattern, ids)
            self._note(ids, value)
            return
        key = pattern.key()
        row = self._general.get(key)
        if row is not None:
            row.ids |= ids
        else:
            self._general[key] = PatternRow(pattern, ids)
        self._note(ids, key)

    # -- the id -> row-key map ---------------------------------------------------

    def _note(self, ids: Iterable[SubscriptionId], key: RowKey) -> None:
        """The row under ``key`` now holds ``ids`` as well."""
        rows_of = self._rows_of
        for sid in ids:
            held = rows_of.setdefault(sid, key)
            if held is key or held == key:
                continue
            if isinstance(held, frozenset):
                rows_of[sid] = held | {key}
            else:
                rows_of[sid] = frozenset((held, key))

    def _move(self, ids: Iterable[SubscriptionId], old: RowKey, new: RowKey) -> None:
        """``ids`` left the row under ``old`` for the one under ``new``."""
        rows_of = self._rows_of
        for sid in ids:
            held = rows_of[sid]
            if isinstance(held, frozenset):
                keys = (held - {old}) | {new}
                rows_of[sid] = next(iter(keys)) if len(keys) == 1 else keys
            else:
                rows_of[sid] = new

    # -- matching ------------------------------------------------------------

    def match(self, value: str) -> Set[SubscriptionId]:
        """All subscription ids whose summarized pattern admits ``value``."""
        matched: Set[SubscriptionId] = set()
        literal_row = self._literals.get(value)
        if literal_row is not None:
            matched |= literal_row.ids
        for row in self._general.values():
            if row.pattern.matches(value):
                matched |= row.ids
        return matched

    # -- maintenance -----------------------------------------------------------

    def remove(self, sid: SubscriptionId) -> bool:
        """Remove an id from every row; drop rows left empty.

        As with AACS, a COARSE row's pattern is not re-specialized on
        removal; the periodic rebuild re-compacts.
        """
        held = self._rows_of.pop(sid, None)
        if held is None:
            return False
        for key in held if isinstance(held, frozenset) else (held,):
            table = self._literals if isinstance(key, str) else self._general
            row = table[key]
            row.ids.discard(sid)
            if not row.ids:
                del table[key]
        return True

    def merge(self, other: "SACS") -> None:
        """Union another attribute summary into this one (multi-broker merge)."""
        if other.precision is not self.precision:
            raise ValueError("cannot merge summaries with different precision modes")
        for row in other.rows():
            self.insert_pattern(row.pattern, set(row.ids))

    def copy(self) -> "SACS":
        clone = SACS(self.precision)
        clone._literals = {
            value: PatternRow(row.pattern, set(row.ids))
            for value, row in self._literals.items()
        }
        clone._general = {
            key: PatternRow(row.pattern, set(row.ids))
            for key, row in self._general.items()
        }
        clone._rows_of = dict(self._rows_of)
        return clone

    def __repr__(self) -> str:
        return f"SACS({'; '.join(str(row) for row in self.rows())})"
