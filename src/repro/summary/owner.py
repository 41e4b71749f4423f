"""The owner index — exact matching over one broker's own subscriptions.

Algorithm 3 (paper section 4.3) notifies the owners of the ids a summary
matched.  Under COARSE precision a summary may over-match, so the owner
asks one more question: *which of my own subscriptions among these
candidates really match the event?*  :class:`OwnerIndex` answers it as set
algebra over slot bitmasks, in the style of the subscription-aggregation
index of Shi et al. (arXiv:1811.07088), instead of calling
:meth:`Subscription.matches` once per candidate.

Every live subscription holds one *slot* (a bit position); slots of
removed subscriptions are recycled through a free list, lowest first, so
masks stay as short as the peak live population.  The index keeps:

* **per arithmetic attribute** — a total partition of the real line into
  rows, each carrying the mask of the slots whose constraint set contains
  it.  Rows are keyed by their first value: an open lower bound ``lo``
  starts at ``math.nextafter(lo, inf)``, which is exact on floats, so one
  :func:`bisect.bisect_right` finds the row of an event value.  An insert
  cuts at most twice and ORs its bit into the rows it spans; a removal
  clears the bit and drops every cut whose two rows end up with equal
  masks, so the partition stays canonical (at most two cuts per live
  interval).  Equality points live in a dict beside the rows;
* **per string attribute** — a dict from literal value to mask (a
  conjunction holding an ``=`` collapses to that literal, or to nothing
  when the rest contradicts it), dicts for pure prefixes and suffixes
  probed once per distinct key length, and the other patterns, one entry
  per distinct pattern, bucketed by their anchor
  (:func:`repro.summary.compiled._anchor_of`) so an event value only tries
  the patterns that could match it;
* **per** ``c3`` **signature** — the mask of its member slots.

A slot matches when it sits in the hit mask of every attribute of its
signature — the same identity the compiled summary matcher rests on
(:mod:`repro.summary.compiled`), built here from the raw constraints
(:func:`~repro.summary.intervals.intervals_for_conjunction`,
:func:`~repro.summary.patterns.pattern_for_constraint`) so it is exact and
updates in place.  Infinite bounds include the infinities themselves, as
:meth:`Constraint.matches` does.

The differential in ``tests/summary/test_owner_index.py`` holds the index
equal to :meth:`Subscription.matches` under interleaved add/remove.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.model.constraints import Operator
from repro.model.events import Event
from repro.model.ids import SubscriptionId
from repro.model.schema import Schema
from repro.model.subscriptions import Subscription
from repro.summary.compiled import _anchor_of, ids_of_bits
from repro.summary.intervals import interval_for_constraint, intervals_for_conjunction
from repro.summary.patterns import ConjunctionPattern, pattern_for_constraint

__all__ = ["OwnerIndex"]

_INF = math.inf


class _Line:
    """One arithmetic attribute: canonical row partition + equality points."""

    __slots__ = ("cuts", "masks", "points")

    def __init__(self) -> None:
        #: Sorted row starts; row ``i`` holds the values in
        #: ``[cuts[i], cuts[i + 1])``.  The first row starts at -inf.
        self.cuts: List[float] = [-_INF]
        self.masks: List[int] = [0]
        self.points: Dict[float, int] = {}

    def lookup(self, value) -> int:
        value = float(value)
        mask = self.masks[bisect_right(self.cuts, value) - 1]
        points = self.points
        if points:
            mask |= points.get(value, 0)
        return mask

    def update(self, bit: int, constraints, add: bool) -> None:
        intervals = (
            interval_for_constraint(constraints[0]) if len(constraints) == 1
            else intervals_for_conjunction(constraints)
        )
        for interval in intervals:
            if interval.is_point:
                _toggle(self.points, interval.lo, bit, add)
                continue
            lo, hi = interval.lo, interval.hi
            start = lo if lo == -_INF or not interval.lo_open else math.nextafter(lo, _INF)
            first = self._cut(start)
            if hi == _INF:
                end = len(self.cuts)
            else:
                end = self._cut(hi if interval.hi_open else math.nextafter(hi, _INF))
            masks = self.masks
            if add:
                masks[first:end] = [mask | bit for mask in masks[first:end]]
            else:
                clear = ~bit
                masks[first:end] = [mask & clear for mask in masks[first:end]]
            # Only the two boundary cuts can have become redundant: rows
            # inside the span all gained (or lost) the same bit.
            self._merge(end)
            self._merge(first)

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

    def canonical(self) -> Tuple:
        return (tuple(self.cuts), tuple(self.masks), dict(self.points))


class _Pattern:
    """One distinct string pattern and the mask of the slots holding it."""

    __slots__ = ("matches", "mask")

    def __init__(self, matches) -> None:
        self.matches = matches
        self.mask = 0


class _Strings:
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

    def lookup(self, value) -> int:
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

    def update(self, bit: int, constraints, add: bool) -> None:
        literal = next(
            (c.value for c in constraints if c.operator is Operator.EQ), None
        )
        if literal is not None:
            if all(c.matches(literal) for c in constraints):
                _toggle(self.literals, literal, bit, add)
            return  # else contradictory: the slot admits no value here
        parts = [pattern_for_constraint(c) for c in constraints]
        pattern = parts[0] if len(parts) == 1 else ConjunctionPattern(parts)
        pieces = getattr(pattern, "pieces", ())
        if len(pieces) == 2 and bool(pieces[0]) != bool(pieces[1]):
            # A pure prefix (``head*``) or suffix (``*tail``): no
            # predicate call at lookup, one dict probe per key length.
            head, tail = pieces
            if head:
                if _toggle(self.prefixes, head, bit, add):
                    _count(self.prefix_lengths, len(head), add)
            elif _toggle(self.suffixes, tail, bit, add):
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
            entry.mask |= bit
            return
        entry.mask &= ~bit
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

    def canonical(self) -> Tuple:
        return (
            dict(self.literals), dict(self.prefixes), dict(self.suffixes),
            {key: entry.mask for key, entry in self.patterns.items()},
        )


def _toggle(masks: Dict, key, bit: int, add: bool) -> bool:
    """OR ``bit`` into (or clear it from) ``masks[key]``, dropping a key
    whose mask empties; returns whether the key appeared or went."""
    old = masks.get(key, 0)
    new = old | bit if add else old & ~bit
    if new:
        masks[key] = new
    else:
        del masks[key]
    return not old or not new


def _count(counts: Dict[int, int], length: int, add: bool) -> None:
    left = counts.get(length, 0) + (1 if add else -1)
    if left:
        counts[length] = left
    else:
        del counts[length]


class OwnerIndex:
    """Exact slot-mask index over one broker's own subscriptions."""

    __slots__ = ("schema", "_ids", "_slot_of", "_free", "_signatures", "_tables")

    def __init__(self, schema: Schema):
        self.schema = schema
        #: Slot -> id (None for a free slot).
        self._ids: List[Optional[SubscriptionId]] = []
        self._slot_of: Dict[SubscriptionId, int] = {}
        #: Free slots, a min-heap: the lowest is reused first.
        self._free: List[int] = []
        #: ``c3`` -> ``[members mask, attribute names of c3]``.
        self._signatures: Dict[int, list] = {}
        #: Attribute name -> its :class:`_Line` or :class:`_Strings`.
        self._tables: Dict[str, object] = {}

    # -- maintenance -----------------------------------------------------------

    def add(self, sid: SubscriptionId, subscription: Subscription) -> None:
        """Give ``sid`` a slot and index its constraints."""
        if sid in self._slot_of:
            raise ValueError(f"{sid} is already indexed")
        if self._free:
            slot = heapq.heappop(self._free)
            self._ids[slot] = sid
        else:
            slot = len(self._ids)
            self._ids.append(sid)
        self._slot_of[sid] = slot
        self._index(slot, sid, subscription, True)

    def remove(self, sid: SubscriptionId, subscription: Subscription) -> None:
        """Unindex ``sid`` (``subscription`` must be the one it was added
        with) and free its slot."""
        slot = self._slot_of.pop(sid)
        self._index(slot, sid, subscription, False)
        self._ids[slot] = None
        heapq.heappush(self._free, slot)

    def _index(
        self, slot: int, sid: SubscriptionId, subscription: Subscription, add: bool
    ) -> None:
        bit = 1 << slot
        signature = self._signatures.get(sid.attr_mask)
        if add:
            if signature is None:
                names = tuple(self.schema.names_from_mask(sid.attr_mask))
                signature = self._signatures[sid.attr_mask] = [0, names]
            signature[0] |= bit
        else:
            signature[0] &= ~bit
            if not signature[0]:
                del self._signatures[sid.attr_mask]
        tables = self._tables
        for name in subscription.attribute_names:
            constraints = subscription.constraints_on(name)
            table = tables.get(name)
            if table is None:
                if not add:
                    continue
                table = tables[name] = (
                    _Strings() if constraints[0].attr_type.is_string else _Line()
                )
            table.update(bit, constraints, add)
            if not add and table.empty:
                del tables[name]

    # -- matching ----------------------------------------------------------------

    def match_within(self, event: Event, candidates: int) -> int:
        """The mask of the slots in ``candidates`` whose subscription
        matches ``event`` (``candidates=-1`` asks about every slot).

        A signature with no candidate member costs one AND; only the
        attributes of the others are looked up, once per event."""
        hits: Dict[str, int] = {}
        tables = self._tables
        matched = 0
        for members, names in self._signatures.values():
            members &= candidates
            if not members:
                continue
            for name in names:
                hit = hits.get(name)
                if hit is None:
                    table = tables.get(name)
                    value = event.get(name)
                    hit = hits[name] = (
                        0 if table is None or value is None else table.lookup(value)
                    )
                members &= hit
                if not members:
                    break
            else:
                matched |= members
        return matched

    # -- slots ---------------------------------------------------------------------

    def bit_of(self, sid: SubscriptionId) -> int:
        """The mask bit of ``sid``'s slot (0 when it is not indexed)."""
        slot = self._slot_of.get(sid)
        return 0 if slot is None else 1 << slot

    def ids_of(self, mask: int) -> Iterable[SubscriptionId]:
        """The ids of the set slots of ``mask``, in slot order (an
        iterable to consume once)."""
        return ids_of_bits(self._ids, mask)

    def __len__(self) -> int:
        return len(self._slot_of)

    # -- introspection (tests and the auditor) -----------------------------------------

    def slots(self) -> Dict[int, SubscriptionId]:
        """Slot -> id of every live slot."""
        return {slot: sid for sid, slot in self._slot_of.items()}

    def slot_count(self) -> int:
        """Slots allocated so far, free ones included."""
        return len(self._ids)

    def members(self) -> Dict[int, int]:
        """``c3`` -> members mask."""
        return {c3: signature[0] for c3, signature in self._signatures.items()}

    def sizes(self) -> Dict[str, Dict[str, int]]:
        """Per attribute: ``rows`` and ``points`` of an arithmetic table,
        distinct literal and pattern ``entries`` of a string table."""
        out: Dict[str, Dict[str, int]] = {}
        for name, table in self._tables.items():
            if isinstance(table, _Line):
                out[name] = {"rows": len(table.cuts), "points": len(table.points)}
            else:
                out[name] = {"entries": table.entries}
        return out

    def canonical(self) -> Tuple:
        """Everything matching depends on, in a comparable form.  The
        partition is canonical, so two indexes over the same slots and
        subscriptions compare equal however they were built."""
        return (
            self.slots(),
            self.members(),
            {
                name: table.canonical()
                for name, table in self._tables.items() if not table.empty
            },
        )

    def rebuilt(self, subscriptions: Mapping[SubscriptionId, Subscription]) -> "OwnerIndex":
        """A fresh index over this one's slots, built from scratch out of
        ``subscriptions`` (slots whose id it lacks are left out)."""
        fresh = OwnerIndex(self.schema)
        fresh._ids = [None] * len(self._ids)
        for slot, sid in sorted(self.slots().items()):
            subscription = subscriptions.get(sid)
            if subscription is None:
                continue
            fresh._ids[slot] = sid
            fresh._slot_of[sid] = slot
            fresh._index(slot, sid, subscription, True)
        return fresh
