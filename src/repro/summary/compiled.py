"""Compiled summary matching — the production fast path for Algorithm 1.

:func:`repro.summary.matching.match_event` is the *reference* matcher: it
walks the live AACS/SACS structures, allocating a fresh
``Set[SubscriptionId]`` per row union and a dict of counters per event.
That is perfect for figure reproduction and as a test oracle, but
wasteful on a hot path that has to sustain heavy event traffic.

:class:`CompiledMatcher` snapshots a :class:`~repro.summary.summary
.BrokerSummary` into flat, immutable lookup structures over Python ``int``
bitmasks:

* **slots** — every distinct :class:`SubscriptionId` in the summary is
  assigned a bit position (*slot*).  Slots are laid out grouped by the
  id's ``c3`` attribute mask, so each *signature* (distinct ``c3``) owns
  one contiguous run of bits, its ``members`` mask;

* **per arithmetic attribute** — the AACS sub-range partition is flattened
  into parallel sorted boundary arrays (``lo``/``hi``/openness) resolved
  with :func:`bisect.bisect_right`, each row carrying the mask of its ids,
  plus a sorted equality-key array whose masks are pre-ORed with the mask
  of the range row containing the key (so an exact-key hit is one lookup);

* **per string attribute** — literal (pure-equality) rows become a hash
  table from value to mask; general rows are bucketed by their anchored
  prefix (first character of the pattern head) or suffix (last character
  of the tail) so an event value only evaluates the patterns that could
  possibly match it, with a small residual list for unanchored patterns
  (containment, not-equals, universal).  The attribute's hit mask is the
  OR of every admitted row's mask.

Matching is set algebra.  Algorithm 1 matches an id when the number of
attributes whose rows admit it equals ``popcount(c3)``.  An id appears only
in the rows of its own ``c3`` attributes, and a mask names each slot once
per attribute, so that count reaches ``popcount(c3)`` exactly when the id
sits in the hit mask of *every* attribute of its ``c3``.  The match is
therefore::

    OR over signatures c3 of (members[c3] AND hits[a] for every a in c3)

with a short-circuit as soon as an AND comes out empty (or an attribute
of ``c3`` has no hits).

Masks are built in time linear in the row entries: bits are written into
a ``bytearray`` and converted once with :meth:`int.from_bytes`.

Snapshots self-invalidate: :class:`~repro.summary.summary.BrokerSummary`
bumps a generation counter on every ``add``/``remove``/``merge``, and the
compiled matcher lazily recompiles the next time it is asked to match
after the generation moved.

Semantics are *identical* to the reference matcher by construction and by
the differential harnesses (``tests/summary/test_compiled_differential.py``
and ``tests/summary/test_compiled_population.py``): for EXACT summaries
both equal the naive ground truth; for COARSE both report the same
superset.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import compress
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


#: A predicate over event string values plus the mask of slots it admits.
_PatternEntry = Tuple[Callable[[str], bool], int]

#: One signature: its ``c3`` mask, the mask of its member slots and the
#: attribute names of ``c3``.
_Signature = Tuple[int, int, Tuple[str, ...]]

_BIT = bytes(1 << i for i in range(8))

#: ``bytes.translate`` table turning ASCII binary digits into 0/1 bytes.
_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


class _ArithTable:
    """Flattened AACS for one attribute: boundary arrays + equality keys."""

    __slots__ = (
        "lows", "highs", "lo_open", "hi_open", "row_masks",
        "eq_keys", "eq_masks",
    )

    def __init__(
        self,
        lows: List[float],
        highs: List[float],
        lo_open: List[bool],
        hi_open: List[bool],
        row_masks: List[int],
        eq_keys: List[float],
        eq_masks: List[int],
    ):
        self.lows = lows
        self.highs = highs
        self.lo_open = lo_open
        self.hi_open = hi_open
        self.row_masks = row_masks
        self.eq_keys = eq_keys
        self.eq_masks = eq_masks

    def lookup(self, value: float) -> int:
        """The mask of slots admitted by ``value`` (0 for none)."""
        eq_keys = self.eq_keys
        if eq_keys:
            j = bisect_left(eq_keys, value)
            if j < len(eq_keys) and eq_keys[j] == value:
                # Pre-ORed with the containing range row at compile time.
                return self.eq_masks[j]
        return self._row_lookup(value)

    def _row_lookup(self, value: float) -> int:
        lows = self.lows
        if not lows:
            return 0
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
            return self.row_masks[j]
        return 0


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
        literals: Dict[str, int],
        head_buckets: Dict[str, List[_PatternEntry]],
        tail_buckets: Dict[str, List[_PatternEntry]],
        unanchored: List[_PatternEntry],
    ):
        self.literals = literals
        self.head_buckets = head_buckets
        self.tail_buckets = tail_buckets
        self.unanchored = unanchored

    def lookup(self, value: str) -> int:
        """The OR of the masks of every row admitting ``value``.

        A slot in several admitting rows (e.g. a subscription with two
        COARSE patterns) is one bit: the attribute counts once."""
        mask = self.literals.get(value, 0)
        if value:
            for matches, bits in self.head_buckets.get(value[0], ()):
                if matches(value):
                    mask |= bits
            for matches, bits in self.tail_buckets.get(value[-1], ()):
                if matches(value):
                    mask |= bits
        for matches, bits in self.unanchored:
            if matches(value):
                mask |= bits
        return mask


class CompiledStats:
    """Size counters for one compiled snapshot (tests and benchmarks)."""

    __slots__ = (
        "generation", "slots", "signatures", "arithmetic_attributes",
        "string_attributes", "range_rows", "equality_keys", "literal_rows",
        "anchored_patterns", "unanchored_patterns",
    )

    def __init__(self) -> None:
        self.generation = 0
        self.slots = 0
        self.signatures = 0
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
        "_summary", "_generation", "_ids", "_signatures", "_arith", "_strings",
    )

    def __init__(self, summary: BrokerSummary):
        self._summary = summary
        self._generation = -1  # never equals a real generation: compiles lazily
        #: Slot -> id.
        self._ids: List[SubscriptionId] = []
        self._signatures: List[_Signature] = []
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
        stats.signatures = len(self._signatures)
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
        groups: Dict[int, List[SubscriptionId]] = {}
        for sid in summary.all_ids():
            groups.setdefault(sid.attr_mask, []).append(sid)
        ids: List[SubscriptionId] = []
        signatures: List[_Signature] = []
        for c3, group in groups.items():
            members = ((1 << len(group)) - 1) << len(ids)
            ids.extend(group)
            names = tuple(summary.schema.names_from_mask(c3))
            signatures.append((c3, members, names))
        slot_of = dict(zip(ids, range(len(ids))))

        def mask_of(sids: Iterable[SubscriptionId]) -> int:
            slots = [slot_of[sid] for sid in sids]
            if not slots:
                return 0
            # Only the bytes between the lowest and highest slot: a short
            # row costs its own span, not the width of the whole snapshot.
            low = min(slots) >> 3
            buf = bytearray((max(slots) >> 3) - low + 1)
            for slot in slots:
                buf[(slot >> 3) - low] |= _BIT[slot & 7]
            return int.from_bytes(buf, "little") << (low << 3)

        arith: Dict[str, _ArithTable] = {}
        for name, aacs in summary.arithmetic_structures().items():
            arith[name] = self._compile_arith(aacs, mask_of)
        strings: Dict[str, _StringTable] = {}
        for name, sacs in summary.string_structures().items():
            strings[name] = self._compile_string(sacs, mask_of)

        self._ids = ids
        self._signatures = signatures
        self._arith = arith
        self._strings = strings
        self._generation = generation

    @staticmethod
    def _compile_arith(aacs, mask_of) -> _ArithTable:
        rows = aacs.range_rows()  # sorted by (lo, lo_open), disjoint
        lows = [row.interval.lo for row in rows]
        highs = [row.interval.hi for row in rows]
        lo_open = [row.interval.lo_open for row in rows]
        hi_open = [row.interval.hi_open for row in rows]
        row_masks = [mask_of(row.ids) for row in rows]
        table = _ArithTable(lows, highs, lo_open, hi_open, row_masks, [], [])
        for value, point_ids in aacs.equality_rows():  # sorted by value
            # OR in the containing range row (EXACT mode lets equality
            # points fall inside rows) so a key hit is a single lookup.
            table.eq_keys.append(value)
            table.eq_masks.append(mask_of(point_ids) | table._row_lookup(value))
        return table

    @staticmethod
    def _compile_string(sacs, mask_of) -> _StringTable:
        literals: Dict[str, int] = {}
        head_buckets: Dict[str, List[_PatternEntry]] = {}
        tail_buckets: Dict[str, List[_PatternEntry]] = {}
        unanchored: List[_PatternEntry] = []
        for row in sacs.rows():
            pattern = row.pattern
            bits = mask_of(row.ids)
            if isinstance(pattern, GlobPattern) and pattern.is_literal:
                # Distinct literal rows have distinct values by SACS
                # construction; OR keeps exotic inputs safe anyway.
                value = pattern.pieces[0]
                literals[value] = literals.get(value, 0) | bits
                continue
            entry: _PatternEntry = (pattern.matches, bits)
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
        arith = self._arith
        strings = self._strings
        hits: Dict[str, int] = {}
        for name, _type, value in event.items():
            table = arith.get(name)
            if table is not None:
                try:
                    numeric = float(value)  # type: ignore[arg-type]
                except (TypeError, ValueError) as exc:
                    # Mirror BrokerSummary.collect_attribute_ids exactly.
                    raise SchemaError(
                        f"event value {value!r} for arithmetic attribute "
                        f"{name!r} is not numeric"
                    ) from exc
                hits[name] = table.lookup(numeric)
                continue
            stable = strings.get(name)
            if stable is not None:
                hits[name] = stable.lookup(value)  # type: ignore[arg-type]
        matched = 0
        for _c3, members, names in self._signatures:
            for name in names:
                members &= hits.get(name, 0)
                if not members:
                    break
            else:
                matched |= members
        return set(ids_of_bits(self._ids, matched))


def ids_of_bits(ids: Sequence, bits: int) -> Iterable:
    """``ids[slot]`` for every set bit of ``bits``, lowest slot first (an
    iterable to consume once)."""
    if not bits:
        return ()
    # Peeling the lowest bit costs per set bit, the digit pass per slot
    # up to the highest set bit; on CPython 3.11 they cross near one
    # set bit in ~24 slots.
    if bits.bit_count() * 24 < bits.bit_length():
        out = []
        while bits:
            low = bits & -bits
            out.append(ids[low.bit_length() - 1])
            bits ^= low
        return out
    # Many hits: one C-level pass over the binary digits, lowest first.
    return compress(ids, bin(bits)[:1:-1].encode().translate(_DIGITS))


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
