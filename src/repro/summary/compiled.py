"""Compiled summary matching — the one production engine for Algorithm 1.

:func:`repro.summary.matching.match_event` is the *reference* matcher: it
walks the live AACS/SACS structures, allocating a fresh
``Set[SubscriptionId]`` per row union and a dict of counters per event.
It stays as the test oracle (and the paranoid ``match-parity`` check);
every broker matches through :class:`CompiledMatcher` instead.

:class:`CompiledMatcher` snapshots a :class:`~repro.summary.summary
.BrokerSummary` into the slot-mask tables of :mod:`repro.summary.tables`,
the same tables the owner index (:mod:`repro.summary.owner`) updates in
place:

* **slots** — every distinct :class:`SubscriptionId` in the summary is
  assigned a bit position (*slot*).  Slots are laid out grouped by the
  id's ``c3`` attribute mask, so each *signature* (distinct ``c3``) owns
  one contiguous run of bits, its ``members`` mask;

* **per arithmetic attribute** — every AACS sub-range row and equality row
  goes into an :class:`~repro.summary.tables.IntervalTable` with the mask
  of its ids;

* **per string attribute** — every SACS row goes into a
  :class:`~repro.summary.tables.PatternTable` with the mask of its ids.

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

from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.model.events import Event
from repro.model.ids import SubscriptionId
from repro.model.schema import SchemaError
from repro.summary.summary import BrokerSummary
from repro.summary.tables import IntervalTable, PatternTable, ids_of_bits

__all__ = ["CompiledMatcher", "CompiledStats"]


#: One signature: its ``c3`` mask, the mask of its member slots and the
#: attribute names of ``c3``.
_Signature = Tuple[int, int, Tuple[str, ...]]

_BIT = bytes(1 << i for i in range(8))


class CompiledStats:
    """Size counters for one compiled snapshot (tests and benchmarks)."""

    __slots__ = (
        "generation", "slots", "signatures", "arithmetic_attributes",
        "string_attributes", "rows", "points", "entries",
    )

    def __init__(self) -> None:
        self.generation = 0
        self.slots = 0
        self.signatures = 0
        self.arithmetic_attributes = 0
        self.string_attributes = 0
        #: Row starts and equality points over every arithmetic table.
        self.rows = 0
        self.points = 0
        #: Distinct literals and patterns over every string table.
        self.entries = 0

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
        self._arith: Dict[str, IntervalTable] = {}
        self._strings: Dict[str, PatternTable] = {}

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
            stats.rows += len(table.cuts)
            stats.points += len(table.points)
        stats.entries = sum(table.entries for table in self._strings.values())
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

        arith: Dict[str, IntervalTable] = {}
        for name, aacs in summary.arithmetic_structures().items():
            table = arith[name] = IntervalTable()
            for row in aacs.range_rows():
                table.update(row.interval, mask_of(row.ids), True)
            for value, point_ids in aacs.equality_rows():
                table.update_point(value, mask_of(point_ids), True)
        strings: Dict[str, PatternTable] = {}
        for name, sacs in summary.string_structures().items():
            patterns = strings[name] = PatternTable()
            for row in sacs.rows():
                patterns.update(row.pattern, mask_of(row.ids), True)

        self._ids = ids
        self._signatures = signatures
        self._arith = arith
        self._strings = strings
        self._generation = generation

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
                    hits[name] = table.lookup(value)
                except (TypeError, ValueError) as exc:
                    # Mirror BrokerSummary.collect_attribute_ids exactly.
                    raise SchemaError(
                        f"event value {value!r} for arithmetic attribute "
                        f"{name!r} is not numeric"
                    ) from exc
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

