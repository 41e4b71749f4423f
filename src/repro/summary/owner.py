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
masks stay as short as the peak live population.  The index keeps one
slot-mask table per attribute (:mod:`repro.summary.tables`, the tables the
compiled summary matcher snapshots into) and, per ``c3`` signature, the
mask of its member slots.  A slot matches when it sits in the hit mask of
every attribute of its signature.

Unlike the compiled snapshot, the index is built from the raw constraints
and updated in place, so it is exact: an arithmetic conjunction becomes
its intervals (:func:`~repro.summary.intervals.intervals_for_conjunction`),
a string conjunction holding an ``=`` collapses to that literal (or to
nothing when the rest contradicts it), and any other string constraints
become one pattern (:func:`~repro.summary.patterns.pattern_for_constraint`).

The same tables answer the broker's covered-id suppression question —
*which frontier members may cover this new subscription?* — by probing a
region instead of a point (:meth:`OwnerIndex.covering_within`).

The differential in ``tests/summary/test_owner_index.py`` holds the index
equal to :meth:`Subscription.matches` under interleaved add/remove.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.model.constraints import Operator
from repro.model.events import Event
from repro.model.ids import SubscriptionId
from repro.model.schema import Schema
from repro.model.subscriptions import Subscription
from repro.summary.intervals import interval_for_constraint, intervals_for_conjunction
from repro.summary.patterns import (
    ConjunctionPattern, GlobPattern, pattern_for_constraint,
)
from repro.summary.tables import IntervalTable, PatternTable, ids_of_bits

__all__ = ["OwnerIndex"]


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
        #: Attribute name -> its :class:`IntervalTable` or :class:`PatternTable`.
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
                    PatternTable() if constraints[0].attr_type.is_string
                    else IntervalTable()
                )
            for entry in _entries(constraints):
                table.update(entry, bit, add)
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

    def covering_within(
        self, subscription: Subscription, attr_mask: int, candidates: int
    ) -> int:
        """A superset of the slots in ``candidates`` whose subscription
        covers ``subscription`` (whose ``c3`` is ``attr_mask``).

        :meth:`match_within` run on a region instead of a point: a slot can
        cover the region only if its signature's attributes are among the
        region's and, on each of them, it admits every probe value of the
        region (:func:`_probes`).  The caller confirms the survivors with
        :func:`~repro.summary.covering.subscription_covers`."""
        stabs: Dict[str, int] = {}
        tables = self._tables
        found = 0
        for c3, (members, names) in self._signatures.items():
            if c3 & ~attr_mask:
                continue
            members &= candidates
            if not members:
                continue
            for name in names:
                stab = stabs.get(name)
                if stab is None:
                    table = tables.get(name)
                    stab = -1
                    for value in _probes(subscription.constraints_on(name)):
                        stab &= 0 if table is None else table.lookup(value)
                    stabs[name] = stab
                members &= stab
                if not members:
                    break
            else:
                found |= members
        return found

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
        return {name: table.sizes() for name, table in self._tables.items()}

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


def _entries(constraints) -> Iterable:
    """What a conjunction of constraints on one attribute puts in its
    table: its intervals on an arithmetic attribute; on a string attribute
    one pattern, or none when the conjunction admits no value."""
    if not constraints[0].attr_type.is_string:
        if len(constraints) == 1:
            return interval_for_constraint(constraints[0])
        return intervals_for_conjunction(constraints)
    literal = next((c for c in constraints if c.operator is Operator.EQ), None)
    if literal is not None:
        if all(c.matches(literal.value) for c in constraints):
            return (pattern_for_constraint(literal),)
        return ()
    parts = [pattern_for_constraint(c) for c in constraints]
    return (parts[0] if len(parts) == 1 else ConjunctionPattern(parts),)


def _probes(constraints) -> Sequence:
    """Values of the region a conjunction on one attribute admits that
    every conjunction covering it must admit too.

    On an arithmetic attribute: both ends of each interval, an open end
    stabbed at the next float inward (the tables cut open bounds the same
    way); an interval holding no float has none.  On a string attribute
    whose region is one glob pattern (a literal, prefix, suffix, contains
    or ``~`` glob): its pieces joined, which the pattern admits because
    every ``*`` can match the empty string.  Other string regions (``!=``,
    conjunctions, empty) have none.  No probe means no filter, so such a
    region costs precision only."""
    entries = _entries(constraints)
    if constraints[0].attr_type.is_string:
        entry = next(iter(entries), None)
        if isinstance(entry, GlobPattern):
            return ("".join(entry.pieces),)
        return ()
    probes = []
    for interval in entries:
        lo = math.nextafter(interval.lo, math.inf) if interval.lo_open else interval.lo
        hi = math.nextafter(interval.hi, -math.inf) if interval.hi_open else interval.hi
        if lo <= hi:
            probes += (lo, hi)
    return probes
