"""Slot-mask tables — the per-attribute index behind every bitset match.

Algorithm 1 is set algebra once each subscription id holds a bit position
(a *slot*): an attribute's table maps an event value to the mask of the
slots whose constraints on that attribute admit it, and a slot matches
when it sits in the hit mask of every attribute of its ``c3`` signature.
Two indexes are built this way and both fill the tables defined here:

* :class:`~repro.summary.compiled.CompiledMatcher` fills fresh tables from
  the AACS/SACS rows of a kept summary, once per summary generation;
* :class:`~repro.summary.owner.OwnerIndex` updates its tables in place from
  one broker's raw constraints as subscriptions come and go.

:class:`IntervalTable` holds one arithmetic attribute: a total partition
of the real line into rows, each carrying the mask of the slots whose
intervals contain it.  Rows are keyed by their first value: an open lower
bound ``lo`` starts at ``math.nextafter(lo, inf)``, which is exact on
floats, so one :func:`bisect.bisect_right` finds the row of an event
value.  An insert cuts at most twice and ORs its mask into the rows it
spans; a removal clears it and drops every cut whose two rows end up with
equal masks, so the partition stays canonical (at most two cuts per live
interval).  Equality points live in a dict beside the rows.  Every bound
follows its :class:`~repro.summary.intervals.Interval`'s own openness;
events carry finite values only (:meth:`Schema.validate_event`).

:class:`PatternTable` holds one string attribute: a dict from literal
value to mask, dicts for pure prefixes and suffixes probed once per
distinct key length, and the other patterns, one entry per distinct
pattern, bucketed by the first character every match must start with
(or the last it must end with) so an event value only tries the
patterns that could match it.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import compress
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.summary.intervals import Interval
from repro.summary.patterns import GlobPattern, StringPattern

__all__ = ["IntervalTable", "PatternTable", "ids_of_bits"]

_INF = math.inf

#: ``bytes.translate`` table turning ASCII binary digits into 0/1 bytes.
_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


class IntervalTable:
    """One arithmetic attribute: canonical row partition + equality points."""

    __slots__ = ("cuts", "masks", "points")

    def __init__(self) -> None:
        #: Sorted row starts; row ``i`` holds the values in
        #: ``[cuts[i], cuts[i + 1])``.  The first row starts at -inf.
        self.cuts: List[float] = [-_INF]
        self.masks: List[int] = [0]
        self.points: Dict[float, int] = {}

    def lookup(self, value) -> int:
        """The mask of slots admitting ``value`` (0 for none)."""
        value = float(value)
        mask = self.masks[bisect_right(self.cuts, value) - 1]
        points = self.points
        if points:
            mask |= points.get(value, 0)
        return mask

    def update(self, interval: Interval, mask: int, add: bool) -> None:
        """OR ``mask`` into (or clear it from) every value of ``interval``."""
        if interval.is_point:
            self.update_point(interval.lo, mask, add)
            return
        lo, hi = interval.lo, interval.hi
        first = self._cut(math.nextafter(lo, _INF) if interval.lo_open else lo)
        end = self._cut(hi if interval.hi_open else math.nextafter(hi, _INF))
        masks = self.masks
        if add:
            masks[first:end] = [row | mask for row in masks[first:end]]
        else:
            clear = ~mask
            masks[first:end] = [row & clear for row in masks[first:end]]
        # Only the two boundary cuts can have become redundant: rows
        # inside the span all gained (or lost) the same bits.
        self._merge(end)
        self._merge(first)

    def update_point(self, value: float, mask: int, add: bool) -> None:
        """:meth:`update` for the point interval ``[value, value]``."""
        _toggle(self.points, value, mask, add)

    def _cut(self, key: float) -> int:
        """The index of the row starting at ``key``, splitting one if needed."""
        cuts = self.cuts
        i = bisect_left(cuts, key)
        if i == len(cuts) or cuts[i] != key:
            cuts.insert(i, key)
            self.masks.insert(i, self.masks[i - 1])
        return i

    def _merge(self, i: int) -> None:
        """Drop cut ``i`` when the rows on both sides carry equal masks."""
        masks = self.masks
        if 0 < i < len(masks) and masks[i - 1] == masks[i]:
            del self.cuts[i]
            del masks[i]

    @property
    def empty(self) -> bool:
        return len(self.cuts) == 1 and not self.masks[0] and not self.points

    def sizes(self) -> Dict[str, int]:
        return {"rows": len(self.cuts), "points": len(self.points)}

    def canonical(self) -> Tuple:
        return (tuple(self.cuts), tuple(self.masks), dict(self.points))


class _Pattern:
    """One distinct string pattern and the mask of the slots holding it."""

    __slots__ = ("matches", "mask")

    def __init__(self, matches) -> None:
        self.matches = matches
        self.mask = 0


class PatternTable:
    """One string attribute: literal, prefix and suffix dicts plus the
    other patterns bucketed by anchor."""

    __slots__ = (
        "literals", "prefixes", "prefix_lengths", "suffixes", "suffix_lengths",
        "heads", "tails", "unanchored", "patterns",
    )

    def __init__(self) -> None:
        self.literals: Dict[str, int] = {}
        #: ``>*`` heads and ``*<`` tails -> mask, plus how many keys each
        #: length has: a value is looked up once per distinct length.
        self.prefixes: Dict[str, int] = {}
        self.prefix_lengths: Dict[int, int] = {}
        self.suffixes: Dict[str, int] = {}
        self.suffix_lengths: Dict[int, int] = {}
        self.heads: Dict[str, List[_Pattern]] = {}
        self.tails: Dict[str, List[_Pattern]] = {}
        self.unanchored: List[_Pattern] = []
        #: Pattern key -> its bucketed entry (identical patterns share one).
        self.patterns: Dict[Tuple, _Pattern] = {}

    def lookup(self, value: str) -> int:
        """The OR of the masks of every pattern admitting ``value``: a slot
        held by several admitting patterns is one bit all the same."""
        mask = self.literals.get(value, 0)
        prefixes = self.prefixes
        if prefixes:
            for length in self.prefix_lengths:
                mask |= prefixes.get(value[:length], 0)
        suffixes = self.suffixes
        if suffixes:
            for length in self.suffix_lengths:
                mask |= suffixes.get(value[-length:], 0)
        if value:
            for entry in self.heads.get(value[0], ()):
                if entry.matches(value):
                    mask |= entry.mask
            for entry in self.tails.get(value[-1], ()):
                if entry.matches(value):
                    mask |= entry.mask
        for entry in self.unanchored:
            if entry.matches(value):
                mask |= entry.mask
        return mask

    def update(self, pattern: StringPattern, mask: int, add: bool) -> None:
        """OR ``mask`` into (or clear it from) ``pattern``'s entry."""
        pieces = pattern.pieces if isinstance(pattern, GlobPattern) else ()
        if len(pieces) == 1:
            _toggle(self.literals, pieces[0], mask, add)
            return
        if len(pieces) == 2 and bool(pieces[0]) != bool(pieces[1]):
            # A pure prefix (``head*``) or suffix (``*tail``): no
            # predicate call at lookup, one dict probe per key length.
            head, tail = pieces
            if head:
                if _toggle(self.prefixes, head, mask, add):
                    _count(self.prefix_lengths, len(head), add)
            elif _toggle(self.suffixes, tail, mask, add):
                _count(self.suffix_lengths, len(tail), add)
            return
        key = pattern.key()
        entry = self.patterns.get(key)
        anchor = _anchor_of(pattern)
        if anchor is None:
            bucket = self.unanchored
        else:
            kind, char = anchor
            buckets = self.heads if kind == "head" else self.tails
            bucket = buckets.setdefault(char, [])
        if add:
            if entry is None:
                entry = self.patterns[key] = _Pattern(pattern.matches)
                bucket.append(entry)
            entry.mask |= mask
            return
        entry.mask &= ~mask
        if not entry.mask:
            del self.patterns[key]
            bucket.remove(entry)
            if anchor is not None and not bucket:
                del buckets[char]

    @property
    def empty(self) -> bool:
        return not self.entries

    @property
    def entries(self) -> int:
        """Distinct literals and patterns held."""
        return (
            len(self.literals) + len(self.prefixes) + len(self.suffixes)
            + len(self.patterns)
        )

    def sizes(self) -> Dict[str, int]:
        return {"entries": self.entries}

    def canonical(self) -> Tuple:
        return (
            dict(self.literals), dict(self.prefixes), dict(self.suffixes),
            {key: entry.mask for key, entry in self.patterns.items()},
        )


def _toggle(masks: Dict, key, mask: int, add: bool) -> bool:
    """OR ``mask`` into (or clear it from) ``masks[key]``, dropping a key
    whose mask empties; returns whether the key appeared or went."""
    old = masks.get(key, 0)
    new = old | mask if add else old & ~mask
    if new:
        masks[key] = new
    elif old:
        del masks[key]
    return bool(old) != bool(new)


def _count(counts: Dict[int, int], length: int, add: bool) -> None:
    left = counts.get(length, 0) + (1 if add else -1)
    if left:
        counts[length] = left
    else:
        del counts[length]


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
