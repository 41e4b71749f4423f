"""Per-broker subscription summaries (paper section 3).

A :class:`BrokerSummary` is the summary-centric representation of a set of
subscriptions: each incoming subscription is *dissolved* into its
attribute-value constraints, which are merged into the per-attribute AACS
(arithmetic) and SACS (string) structures.  "In this paradigm there are no
subscription entities, only subscription summaries" — the only
per-subscription residue is the bit-packed id in the row id-lists.

A summary built by one broker can be merged with others' summaries to form
the multi-broker summaries of section 4 (:meth:`merge`); merging is a plain
per-attribute union of structures.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Set

from repro.model.events import Event
from repro.model.ids import SubscriptionId
from repro.model.schema import Schema, SchemaError
from repro.model.subscriptions import Subscription
from repro.summary.aacs import AACS
from repro.summary.intervals import intervals_for_conjunction
from repro.summary.patterns import (
    ConjunctionPattern,
    StringPattern,
    pattern_for_constraint,
)
from repro.summary.precision import Precision
from repro.summary.sacs import SACS

__all__ = ["BrokerSummary", "SummaryStats"]


class SummaryStats:
    """Structure-size counters for the analytic model of section 5.1."""

    __slots__ = ("n_sr", "n_e", "n_r", "arithmetic_id_entries", "string_id_entries",
                 "string_value_bytes", "arithmetic_attributes", "string_attributes")

    def __init__(self) -> None:
        self.n_sr = 0  # total sub-range rows over all arithmetic attributes
        self.n_e = 0  # total equality rows
        self.n_r = 0  # total pattern rows over all string attributes
        self.arithmetic_id_entries = 0
        self.string_id_entries = 0
        self.string_value_bytes = 0
        self.arithmetic_attributes = 0
        self.string_attributes = 0

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        body = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"SummaryStats({body})"


class BrokerSummary:
    """Summarized subscriptions of one broker (or of a merged broker set).

    Every mutating operation (:meth:`add`, :meth:`remove`, :meth:`merge`)
    bumps :attr:`generation`, which lets compiled snapshots
    (:class:`repro.summary.compiled.CompiledMatcher`) detect staleness and
    lazily rebuild without the summary having to know about them.
    """

    __slots__ = ("schema", "precision", "_aacs", "_sacs", "_generation")

    def __init__(self, schema: Schema, precision: Precision = Precision.COARSE):
        self.schema = schema
        self.precision = precision
        self._aacs: Dict[str, AACS] = {}
        self._sacs: Dict[str, SACS] = {}
        #: Monotonic mutation counter; compiled snapshots key off it.
        self._generation = 0

    @property
    def generation(self) -> int:
        """Monotonic counter bumped on every mutation (add/remove/merge)."""
        return self._generation

    # -- insertion (dissolve a subscription) -----------------------------------

    def add(self, subscription: Subscription, sid: SubscriptionId) -> None:
        """Dissolve ``subscription`` into the per-attribute structures.

        The id's ``c3`` mask must agree with the subscription's constrained
        attributes — Algorithm 1's step 2 depends on it.
        """
        self.schema.validate_subscription(subscription)
        expected_mask = self.schema.mask_of(subscription)
        if sid.attr_mask != expected_mask:
            raise ValueError(
                f"subscription id mask {sid.attr_mask:#x} does not match the "
                f"subscription's attributes mask {expected_mask:#x}"
            )
        for name in subscription.attribute_names:
            constraints = subscription.constraints_on(name)
            if self.schema.type_of(name).is_string:
                self._add_string(name, constraints, sid)
            else:
                self._add_arithmetic(name, constraints, sid)
        self._generation += 1

    def _add_arithmetic(self, name: str, constraints, sid: SubscriptionId) -> None:
        values = intervals_for_conjunction(constraints)
        self._aacs_for(name).insert(values, sid)

    def _add_string(self, name: str, constraints, sid: SubscriptionId) -> None:
        sacs = self._sacs_for(name)
        patterns: List[StringPattern] = [pattern_for_constraint(c) for c in constraints]
        if self.precision is Precision.EXACT and len(patterns) > 1:
            # Keep the conjunction intact so the row is exactly as selective
            # as the original subscription.
            sacs.insert(ConjunctionPattern(patterns), sid)
            return
        # COARSE (paper) behavior: each constraint merges independently.
        for pattern in patterns:
            sacs.insert(pattern, sid)

    def _aacs_for(self, name: str) -> AACS:
        if self.schema.type_of(name).is_string:
            raise SchemaError(f"attribute {name!r} is a string attribute")
        structure = self._aacs.get(name)
        if structure is None:
            structure = self._aacs[name] = AACS(self.precision)
        return structure

    def _sacs_for(self, name: str) -> SACS:
        if not self.schema.type_of(name).is_string:
            raise SchemaError(f"attribute {name!r} is not a string attribute")
        structure = self._sacs.get(name)
        if structure is None:
            structure = self._sacs[name] = SACS(self.precision)
        return structure

    # -- matching (delegates to Algorithm 1) --------------------------------------

    def match(self, event: Event) -> Set[SubscriptionId]:
        from repro.summary.matching import match_event

        return match_event(self, event)

    def collect_attribute_ids(self, name: str, value) -> Set[SubscriptionId]:
        """Step 1 of Algorithm 1 for one event attribute: the id lists whose
        summarized constraint on ``name`` is satisfied by ``value``.

        An attribute name no summarized subscription constrains (absent from
        both the AACS and SACS maps) contributes nothing — events may carry
        more attributes than any subscription mentions.  An arithmetic
        attribute whose event value is not numeric raises a clear
        :class:`~repro.model.schema.SchemaError` instead of a bare
        ``ValueError``/``TypeError`` from ``float()``.
        """
        if name in self._aacs:
            try:
                numeric = float(value)  # type: ignore[arg-type]
            except (TypeError, ValueError) as exc:
                raise SchemaError(
                    f"event value {value!r} for arithmetic attribute {name!r} "
                    f"is not numeric"
                ) from exc
            return self._aacs[name].match(numeric)
        if name in self._sacs:
            return self._sacs[name].match(value)
        return set()

    # -- maintenance ------------------------------------------------------------------

    def remove(self, sid: SubscriptionId) -> bool:
        """Remove a subscription id from every structure it appears in."""
        found = False
        for name in list(self._aacs):
            if self._aacs[name].remove(sid):
                found = True
            if self._aacs[name].is_empty:
                del self._aacs[name]
        for name in list(self._sacs):
            if self._sacs[name].remove(sid):
                found = True
            if self._sacs[name].is_empty:
                del self._sacs[name]
        if found:
            self._generation += 1
        return found

    def merge(self, other: "BrokerSummary") -> None:
        """Per-attribute union with another summary (section 4.1).

        Merging an empty summary changes nothing, so it leaves the
        generation alone: compiled snapshots stay current across quiet
        propagation periods."""
        if other.schema != self.schema:
            raise SchemaError("cannot merge summaries over different schemas")
        if other.precision is not self.precision:
            raise ValueError("cannot merge summaries with different precision modes")
        if other.is_empty:
            return
        for name, structure in other._aacs.items():
            self._aacs_for(name).merge(structure)
        for name, structure in other._sacs.items():
            self._sacs_for(name).merge(structure)
        self._generation += 1

    def copy(self) -> "BrokerSummary":
        clone = BrokerSummary(self.schema, self.precision)
        clone._aacs = {name: s.copy() for name, s in self._aacs.items()}
        clone._sacs = {name: s.copy() for name, s in self._sacs.items()}
        return clone

    @classmethod
    def merged(cls, summaries: Iterable["BrokerSummary"]) -> "BrokerSummary":
        """A fresh summary that is the union of all given ones."""
        iterator = iter(summaries)
        try:
            first = next(iterator)
        except StopIteration:
            raise ValueError("merged() needs at least one summary") from None
        result = first.copy()
        for summary in iterator:
            result.merge(summary)
        return result

    # -- introspection ------------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self._aacs and not self._sacs

    def aacs(self, name: str) -> Optional[AACS]:
        return self._aacs.get(name)

    def sacs(self, name: str) -> Optional[SACS]:
        return self._sacs.get(name)

    def arithmetic_structures(self) -> Mapping[str, AACS]:
        return dict(self._aacs)

    def string_structures(self) -> Mapping[str, SACS]:
        return dict(self._sacs)

    def all_ids(self) -> Set[SubscriptionId]:
        ids: Set[SubscriptionId] = set()
        for structure in self._aacs.values():
            ids |= structure.all_ids()
        for structure in self._sacs.values():
            ids |= structure.all_ids()
        return ids

    def owner_brokers(self) -> Set[int]:
        """The c1 fields present — which brokers' subscriptions are inside."""
        return {sid.broker for sid in self.all_ids()}

    def stats(self) -> SummaryStats:
        stats = SummaryStats()
        for structure in self._aacs.values():
            stats.arithmetic_attributes += 1
            stats.n_sr += structure.n_sr
            stats.n_e += structure.n_e
            stats.arithmetic_id_entries += structure.id_list_entries()
        for structure in self._sacs.values():
            stats.string_attributes += 1
            stats.n_r += structure.n_r
            stats.string_id_entries += structure.id_list_entries()
            stats.string_value_bytes += structure.value_bytes()
        return stats

    def __repr__(self) -> str:
        return (
            f"BrokerSummary({len(self._aacs)} AACS, {len(self._sacs)} SACS, "
            f"{len(self.all_ids())} ids, {self.precision.value})"
        )
