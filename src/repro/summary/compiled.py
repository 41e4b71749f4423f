"""Compiled summary matching — the production fast path for Algorithm 1.

:func:`repro.summary.matching.match_event` is the *reference* matcher: it
walks the live AACS/SACS structures, allocating a fresh
``Set[SubscriptionId]`` per row union and a dict of counters per event.
That is perfect for figure reproduction but wasteful on a hot path that has
to sustain heavy event traffic.

:class:`CompiledMatcher` snapshots a :class:`~repro.summary.summary
.BrokerSummary` into flat, immutable lookup structures:

* **id interning** — every distinct :class:`SubscriptionId` in the summary
  is assigned a dense integer *slot*; row id-lists become tuples of slots,
  and ``popcount(c3)`` (the per-subscription full-match threshold of
  Algorithm 1, step 2) is precomputed into an ``array('I')`` indexed by
  slot, so the per-event decision is an integer compare with no per-event
  dict/set churn;

* **per arithmetic attribute** — the AACS sub-range partition is flattened
  into parallel sorted boundary arrays (``lo``/``hi``/openness) resolved
  with :func:`bisect.bisect_right`, plus a sorted equality-key array whose
  slot lists are pre-unioned with the slots of the range row containing the
  key (so an exact-key hit needs no second lookup and never double-counts);

* **per string attribute** — literal (pure-equality) rows become a hash
  table keyed by value; general rows are bucketed by their anchored prefix
  (first character of the pattern head) or suffix (last character of the
  tail) so an event value only evaluates the patterns that could possibly
  match it, with a small residual list for unanchored patterns
  (containment, not-equals, universal);

* **candidate counting** — a preallocated ``array('I')`` counter indexed by
  slot, reset via a touched-slot list, replaces the per-event counter dict.

Snapshots self-invalidate: :class:`~repro.summary.summary.BrokerSummary`
bumps a generation counter on every ``add``/``remove``/``merge``, and the
compiled matcher lazily recompiles the next time it is asked to match
after the generation moved.

Semantics are *identical* to the reference matcher by construction and by
the differential harness (``tests/summary/test_compiled_differential.py``):
for EXACT summaries both equal the naive ground truth; for COARSE both
report the same superset.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.model.events import Event
from repro.model.ids import SubscriptionId
from repro.model.schema import SchemaError
from repro.summary.patterns import GlobPattern, StringPattern
from repro.summary.summary import BrokerSummary

__all__ = ["CompiledMatcher", "CompiledStats"]


#: A predicate over event string values plus the slots it admits.
_PatternEntry = Tuple[Callable[[str], bool], Tuple[int, ...]]


class _ArithTable:
    """Flattened AACS for one attribute: boundary arrays + equality keys."""

    __slots__ = (
        "lows", "highs", "lo_open", "hi_open", "row_slots",
        "eq_keys", "eq_slots",
    )

    def __init__(
        self,
        lows: List[float],
        highs: List[float],
        lo_open: List[bool],
        hi_open: List[bool],
        row_slots: List[Tuple[int, ...]],
        eq_keys: List[float],
        eq_slots: List[Tuple[int, ...]],
    ):
        self.lows = lows
        self.highs = highs
        self.lo_open = lo_open
        self.hi_open = hi_open
        self.row_slots = row_slots
        self.eq_keys = eq_keys
        self.eq_slots = eq_slots

    def lookup(self, value: float) -> Optional[Tuple[int, ...]]:
        """The (deduplicated) slot list admitted by ``value``, or None."""
        eq_keys = self.eq_keys
        if eq_keys:
            j = bisect_left(eq_keys, value)
            if j < len(eq_keys) and eq_keys[j] == value:
                # Pre-unioned with the containing range row at compile time.
                return self.eq_slots[j]
        return self._row_lookup(value)

    def _row_lookup(self, value: float) -> Optional[Tuple[int, ...]]:
        lows = self.lows
        if not lows:
            return None
        idx = bisect_right(lows, value) - 1
        # Rows are disjoint and sorted by (lo, lo_open); the containing row
        # has the greatest lo <= value, but an open lower bound equal to
        # ``value`` means the previous row could be the one; check both.
        for j in (idx, idx - 1):
            if j < 0:
                continue
            lo = lows[j]
            if value < lo or (value == lo and self.lo_open[j]):
                continue
            hi = self.highs[j]
            if value > hi or (value == hi and self.hi_open[j]):
                continue
            return self.row_slots[j]
        return None


class _StringTable:
    """Bucketed SACS for one attribute.

    ``literals`` resolves pure-equality rows in O(1); anchored general rows
    are bucketed by first-char-of-head / last-char-of-tail so only patterns
    that share the event value's boundary characters are evaluated;
    ``unanchored`` holds the residue (containment, NE, universal patterns).
    """

    __slots__ = ("literals", "head_buckets", "tail_buckets", "unanchored")

    def __init__(
        self,
        literals: Dict[str, Tuple[int, ...]],
        head_buckets: Dict[str, List[_PatternEntry]],
        tail_buckets: Dict[str, List[_PatternEntry]],
        unanchored: List[_PatternEntry],
    ):
        self.literals = literals
        self.head_buckets = head_buckets
        self.tail_buckets = tail_buckets
        self.unanchored = unanchored

    def lookup(self, value: str) -> List[Tuple[int, ...]]:
        """All slot lists admitted by ``value`` (may need deduplication)."""
        hits: List[Tuple[int, ...]] = []
        slots = self.literals.get(value)
        if slots is not None:
            hits.append(slots)
        if value:
            for matches, slots in self.head_buckets.get(value[0], ()):
                if matches(value):
                    hits.append(slots)
            for matches, slots in self.tail_buckets.get(value[-1], ()):
                if matches(value):
                    hits.append(slots)
        for matches, slots in self.unanchored:
            if matches(value):
                hits.append(slots)
        return hits


class CompiledStats:
    """Size counters for one compiled snapshot (tests and benchmarks)."""

    __slots__ = (
        "generation", "slots", "arithmetic_attributes", "string_attributes",
        "range_rows", "equality_keys", "literal_rows", "anchored_patterns",
        "unanchored_patterns",
    )

    def __init__(self) -> None:
        self.generation = 0
        self.slots = 0
        self.arithmetic_attributes = 0
        self.string_attributes = 0
        self.range_rows = 0
        self.equality_keys = 0
        self.literal_rows = 0
        self.anchored_patterns = 0
        self.unanchored_patterns = 0

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        body = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"CompiledStats({body})"


class CompiledMatcher:
    """An immutable, flat snapshot of a :class:`BrokerSummary` for matching.

    The snapshot is compiled lazily on first use and recompiled
    automatically whenever the underlying summary's generation counter
    moves (``add``/``remove``/``merge``), so a stale snapshot is never
    matched against.
    """

    __slots__ = (
        "_summary", "_generation", "_ids", "_required", "_counters",
        "_arith", "_strings",
    )

    def __init__(self, summary: BrokerSummary):
        self._summary = summary
        self._generation = -1  # never equals a real generation: compiles lazily
        self._ids: List[SubscriptionId] = []
        self._required = array("I")
        self._counters = array("I")
        self._arith: Dict[str, _ArithTable] = {}
        self._strings: Dict[str, _StringTable] = {}

    # -- introspection -------------------------------------------------------

    @property
    def summary(self) -> BrokerSummary:
        return self._summary

    @property
    def generation(self) -> int:
        """The summary generation this snapshot was compiled against
        (-1 before the first compile)."""
        return self._generation

    @property
    def is_stale(self) -> bool:
        return self._generation != self._summary.generation

    def stats(self) -> CompiledStats:
        """Structure sizes of the current snapshot (compiles if stale)."""
        self._ensure_current()
        stats = CompiledStats()
        stats.generation = self._generation
        stats.slots = len(self._ids)
        stats.arithmetic_attributes = len(self._arith)
        stats.string_attributes = len(self._strings)
        for table in self._arith.values():
            stats.range_rows += len(table.lows)
            stats.equality_keys += len(table.eq_keys)
        for stable in self._strings.values():
            stats.literal_rows += len(stable.literals)
            stats.anchored_patterns += sum(
                len(bucket) for bucket in stable.head_buckets.values()
            ) + sum(len(bucket) for bucket in stable.tail_buckets.values())
            stats.unanchored_patterns += len(stable.unanchored)
        return stats

    # -- compilation ---------------------------------------------------------

    def refresh(self) -> bool:
        """Recompile now if stale; returns whether a recompile happened."""
        if self.is_stale:
            self._compile()
            return True
        return False

    def _ensure_current(self) -> None:
        if self._generation != self._summary.generation:
            self._compile()

    def _compile(self) -> None:
        summary = self._summary
        generation = summary.generation  # snapshot before walking structures
        id_to_slot: Dict[SubscriptionId, int] = {}
        ids: List[SubscriptionId] = []

        def slots_of(sids: Iterable[SubscriptionId]) -> Tuple[int, ...]:
            out = []
            for sid in sorted(sids):
                slot = id_to_slot.get(sid)
                if slot is None:
                    slot = id_to_slot[sid] = len(ids)
                    ids.append(sid)
                out.append(slot)
            return tuple(out)

        arith: Dict[str, _ArithTable] = {}
        for name, aacs in summary.arithmetic_structures().items():
            arith[name] = self._compile_arith(aacs, slots_of)
        strings: Dict[str, _StringTable] = {}
        for name, sacs in summary.string_structures().items():
            strings[name] = self._compile_string(sacs, slots_of)

        self._ids = ids
        self._required = array("I", (sid.attribute_count for sid in ids))
        self._counters = array("I", bytes(4 * len(ids)))  # zero-filled
        self._arith = arith
        self._strings = strings
        self._generation = generation

    @staticmethod
    def _compile_arith(aacs, slots_of) -> _ArithTable:
        rows = aacs.range_rows()  # sorted by (lo, lo_open), disjoint
        lows = [row.interval.lo for row in rows]
        highs = [row.interval.hi for row in rows]
        lo_open = [row.interval.lo_open for row in rows]
        hi_open = [row.interval.hi_open for row in rows]
        row_slots = [slots_of(row.ids) for row in rows]
        table = _ArithTable(lows, highs, lo_open, hi_open, row_slots, [], [])
        eq_keys: List[float] = []
        eq_slots: List[Tuple[int, ...]] = []
        for value, point_ids in aacs.equality_rows():  # sorted by value
            merged = slots_of(point_ids)
            # Pre-union with the containing range row (EXACT mode lets
            # equality points fall inside rows) so a key hit resolves to a
            # single already-deduplicated slot list.
            row = table._row_lookup(value)
            if row:
                merged = tuple(sorted(set(merged) | set(row)))
            eq_keys.append(value)
            eq_slots.append(merged)
        table.eq_keys = eq_keys
        table.eq_slots = eq_slots
        return table

    @staticmethod
    def _compile_string(sacs, slots_of) -> _StringTable:
        literals: Dict[str, Tuple[int, ...]] = {}
        head_buckets: Dict[str, List[_PatternEntry]] = {}
        tail_buckets: Dict[str, List[_PatternEntry]] = {}
        unanchored: List[_PatternEntry] = []
        for row in sacs.rows():
            pattern = row.pattern
            slots = slots_of(row.ids)
            if isinstance(pattern, GlobPattern) and pattern.is_literal:
                # Distinct literal rows have distinct values by SACS
                # construction, but stay safe under exotic inputs.
                prior = literals.get(pattern.pieces[0])
                if prior is not None:  # pragma: no cover - defensive
                    slots = tuple(sorted(set(prior) | set(slots)))
                literals[pattern.pieces[0]] = slots
                continue
            entry: _PatternEntry = (pattern.matches, slots)
            anchor = _anchor_of(pattern)
            if anchor is None:
                unanchored.append(entry)
            else:
                kind, char = anchor
                bucket = head_buckets if kind == "head" else tail_buckets
                bucket.setdefault(char, []).append(entry)
        return _StringTable(literals, head_buckets, tail_buckets, unanchored)

    # -- matching ------------------------------------------------------------

    def match(self, event: Event) -> Set[SubscriptionId]:
        """All subscription ids matched by ``event`` — same semantics as
        :func:`repro.summary.matching.match_event` on the live summary."""
        self._ensure_current()
        return self._match_compiled(event)

    def match_many(self, events: Sequence[Event]) -> List[Set[SubscriptionId]]:
        """:meth:`match` over a batch, checking the snapshot once."""
        self._ensure_current()
        return [self._match_compiled(event) for event in events]

    def _match_compiled(self, event: Event) -> Set[SubscriptionId]:
        counters = self._counters
        touched: List[int] = []
        arith = self._arith
        strings = self._strings
        for name, _type, value in event.items():
            table = arith.get(name)
            if table is not None:
                try:
                    numeric = float(value)  # type: ignore[arg-type]
                except (TypeError, ValueError) as exc:
                    # Mirror BrokerSummary.collect_attribute_ids exactly —
                    # but reset counters first so the matcher stays usable.
                    for slot in touched:
                        counters[slot] = 0
                    raise SchemaError(
                        f"event value {value!r} for arithmetic attribute "
                        f"{name!r} is not numeric"
                    ) from exc
                slots = table.lookup(numeric)
                if slots:
                    for slot in slots:
                        count = counters[slot]
                        if not count:
                            touched.append(slot)
                        counters[slot] = count + 1
                continue
            stable = strings.get(name)
            if stable is None:
                continue  # attribute constrained by no summarized subscription
            hits = stable.lookup(value)  # type: ignore[arg-type]
            if not hits:
                continue
            if len(hits) == 1:
                slots_iter: Iterable[int] = hits[0]
            else:
                # The same slot may appear in several rows of one attribute
                # (e.g. a subscription with two COARSE patterns); Algorithm 1
                # counts each attribute once, so deduplicate across hits.
                dedup: Set[int] = set(hits[0])
                for extra in hits[1:]:
                    dedup.update(extra)
                slots_iter = dedup
            for slot in slots_iter:
                count = counters[slot]
                if not count:
                    touched.append(slot)
                counters[slot] = count + 1
        matched: Set[SubscriptionId] = set()
        ids = self._ids
        required = self._required
        for slot in touched:
            if counters[slot] == required[slot]:
                matched.add(ids[slot])
            counters[slot] = 0  # reset only what this event touched
        return matched


def _anchor_of(pattern: StringPattern) -> Optional[Tuple[str, str]]:
    """The bucketing anchor of a general pattern, if it has one.

    Returns ``("head", c)`` when every matching value must start with the
    character ``c``, ``("tail", c)`` when every matching value must end
    with ``c``, and None when the pattern admits values with arbitrary
    boundary characters (containment, not-equals, universal globs).

    For conjunctions, any member pattern's anchor is a sound anchor for the
    whole conjunction (the value must match every member).
    """
    if isinstance(pattern, GlobPattern):
        if pattern.head:
            return ("head", pattern.head[0])
        if pattern.tail:
            return ("tail", pattern.tail[-1])
        return None
    parts = getattr(pattern, "parts", None)  # ConjunctionPattern
    if parts:
        for part in parts:
            anchor = _anchor_of(part)
            if anchor is not None:
                return anchor
    return None
