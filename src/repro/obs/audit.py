"""SummaryAuditor — paranoid runtime invariant checks for summary state.

At scale, the failure mode Shi et al. (arXiv:1811.07088) warn about for
aggregated subscription matching is *silent divergence*: a kept summary
that no longer reflects the raw subscription store keeps routing (or keeps
over-routing) without any test noticing until a figure comes out wrong.
The auditor turns that class of bug into an immediate, descriptive error.

Invariants checked (per broker, against its kept multi-broker summary):

1.  **AACS structure** — sub-range rows sorted by ``(lo, lo_open)`` and
    pairwise disjoint; the sorted equality-key index mirrors the equality
    map; no row carries an empty id list.
2.  **SACS structure** — no empty id lists; literal rows are keyed by
    their own literal value (and that value matches the row's pattern).
3.  **c3-mask accounting** — an id may only appear in the structure of an
    attribute whose ``c3`` bit it carries; Algorithm 1's
    ``hit-count == popcount(c3)`` termination rule is meaningless
    otherwise.  (Presence on *every* constrained attribute is checked via
    sampling, see 5 — a contradictory constraint legitimately inserts
    nothing.)
4.  **Local liveness** — every id owned by this broker that appears in
    its kept summary, pending batch or open period's adds must still
    exist in the raw store.  This is the check that catches the
    unsubscribe-mid-period resurrection bug (see
    ``SummaryBroker.unsubscribe``).
5.  **Sampled coverage soundness** — for a bounded sample of stored
    subscriptions, attribute values that satisfy the *original*
    constraints must be admitted by the summarized structures (COARSE may
    widen, never narrow).  Arithmetic samples come from the satisfied
    interval set; string samples from the constraint operands.
6.  **Compiled-snapshot accounting** — a fresh compiled snapshot must
    give exactly the summary's ids a slot each, and its signature masks
    must partition the slots by ``c3``.
7.  **Dedup capacity** — the publish-id LRU tables never exceed their
    configured capacity.
8.  **Removal tracking** — own ids queued for delta-mode removal
    propagation (``removed_pending`` and the open period's removal block)
    are dead in the store.
9.  **Suppression accounting** — under covered-id suppression the frontier
    and the covered set partition the store, the frontier slot mask holds
    exactly the members' bits, the two cover maps are exact inverses,
    every coverer is a live frontier member that covers its ids (sampled),
    covered ids never appear in the kept summary or pending batch, and
    the ``suppressed`` counter equals the covered-map size.
10. **Owner accounting** — the store's
    :class:`~repro.summary.owner.OwnerIndex` gives exactly the stored ids
    a slot each, its signature masks partition the slots by ``c3``, its
    tables equal a from-scratch rebuild over the same slots, and every
    broker closure mask equals its recomputation from ``_covered_by``.

Paranoid brokers also hold every delivery to the per-candidate oracle walk
(``owner-parity``, :meth:`SummaryAuditor.check_owner_parity`) and every
compiled match to the reference walk (``match-parity``).

The auditor inspects private structure fields on purpose: it exists to
distrust the public API.  Enable system-wide paranoid mode with
``REPRO_PARANOID=1`` (see :class:`~repro.broker.system.SummaryPubSub`);
``REPRO_AUDIT_SAMPLE`` bounds the per-audit soundness sample (default 64).
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.model.constraints import Constraint, Operator
from repro.model.ids import SubscriptionId
from repro.model.schema import Schema
from repro.summary.covering import subscription_covers
from repro.summary.intervals import Interval, intervals_for_conjunction
from repro.summary.summary import BrokerSummary

__all__ = [
    "AuditError",
    "SummaryAuditor",
    "Violation",
    "paranoid_enabled",
    "audit_sample_limit",
]

#: Environment switch for system-wide paranoid mode.
PARANOID_ENV = "REPRO_PARANOID"
#: Environment override for the per-audit soundness sample size.
SAMPLE_ENV = "REPRO_AUDIT_SAMPLE"

_FALSY = {"", "0", "false", "no", "off"}


def paranoid_enabled() -> bool:
    """Whether ``REPRO_PARANOID`` requests paranoid mode (default off)."""
    return os.environ.get(PARANOID_ENV, "").strip().lower() not in _FALSY


def audit_sample_limit(default: int = 64) -> int:
    """The configured soundness sample size (``REPRO_AUDIT_SAMPLE``)."""
    raw = os.environ.get(SAMPLE_ENV, "").strip()
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        return default
    return max(0, value)


@dataclass(frozen=True)
class Violation:
    """One failed invariant."""

    check: str  # invariant family, e.g. "local-liveness"
    broker: int  # -1 for system-level findings
    detail: str

    def __str__(self) -> str:
        where = f"broker {self.broker}" if self.broker >= 0 else "system"
        return f"[{self.check}] {where}: {self.detail}"


class AuditError(AssertionError):
    """Raised when paranoid mode finds invariant violations."""

    def __init__(self, violations: Sequence[Violation]):
        self.violations = list(violations)
        lines = [f"summary audit failed ({len(self.violations)} violation(s)):"]
        lines += [f"  {violation}" for violation in self.violations]
        super().__init__("\n".join(lines))


class SummaryAuditor:
    """Checks summary/store invariants on brokers and whole systems."""

    def __init__(self, schema: Schema, sample_limit: Optional[int] = None):
        self.schema = schema
        self.sample_limit = (
            audit_sample_limit() if sample_limit is None else max(0, sample_limit)
        )
        #: Cumulative number of audits executed (observability of the
        #: observer: CI asserts the paranoid hooks actually fired).
        self.audits_run = 0

    # -- entry points --------------------------------------------------------

    def audit_broker(self, broker) -> List[Violation]:
        """All violations found on one :class:`SummaryBroker`."""
        self.audits_run += 1
        violations: List[Violation] = []
        bid = broker.broker_id
        self._check_summary_structures(broker.kept_summary, bid, violations)
        period = broker.period
        if period is not None:
            self._check_summary_structures(
                period.adds, bid, violations, label="period adds"
            )
        self._check_local_liveness(broker, violations)
        self._check_removal_tracking(broker, violations)
        self._check_suppression_accounting(broker, violations)
        self._check_sampled_soundness(broker, violations)
        self._check_compiled_accounting(broker, violations)
        self._check_owner_accounting(broker, violations)
        self._check_dedup_capacity(broker, violations)
        return violations

    def audit_system(self, system) -> List[Violation]:
        """Audit every broker plus the cross-broker invariants."""
        violations: List[Violation] = []
        all_brokers = set(system.brokers)
        for broker_id in sorted(system.brokers):
            broker = system.brokers[broker_id]
            violations.extend(self.audit_broker(broker))
            if broker.broker_id not in broker.merged_brokers:
                violations.append(Violation(
                    "merged-brokers", broker_id,
                    "Merged_Brokers does not contain the broker itself",
                ))
            if not broker.merged_brokers <= all_brokers:
                violations.append(Violation(
                    "merged-brokers", broker_id,
                    f"Merged_Brokers references unknown brokers "
                    f"{sorted(broker.merged_brokers - all_brokers)}",
                ))
        return violations

    def assert_clean(self, target) -> None:
        """Audit a broker or a system; raise :class:`AuditError` on findings."""
        if hasattr(target, "brokers"):
            violations = self.audit_system(target)
        else:
            violations = self.audit_broker(target)
        if violations:
            raise AuditError(violations)

    def audit_dedup(self, system) -> None:
        """The O(#brokers) post-publish check: dedup tables in bounds."""
        violations: List[Violation] = []
        for broker in system.brokers.values():
            self._check_dedup_capacity(broker, violations)
        if violations:
            raise AuditError(violations)

    # -- invariant families ----------------------------------------------------

    def _check_summary_structures(
        self,
        summary: BrokerSummary,
        broker_id: int,
        violations: List[Violation],
        label: str = "kept",
    ) -> None:
        for name, aacs in summary.arithmetic_structures().items():
            where = f"{label} AACS[{name}]"
            rows = aacs.range_rows()
            for prev, row in zip(rows, rows[1:]):
                if _row_key(prev.interval) > _row_key(row.interval):
                    violations.append(Violation(
                        "aacs-order", broker_id,
                        f"{where} rows out of order: {prev.interval} after "
                        f"{row.interval}",
                    ))
                if prev.interval.overlaps(row.interval):
                    violations.append(Violation(
                        "aacs-disjoint", broker_id,
                        f"{where} rows overlap: {prev.interval} and {row.interval}",
                    ))
            for row in rows:
                if not row.ids:
                    violations.append(Violation(
                        "aacs-empty-row", broker_id,
                        f"{where} row {row.interval} has an empty id list",
                    ))
            eq_keys = list(aacs._eq_keys)
            if eq_keys != sorted(aacs._equalities):
                violations.append(Violation(
                    "aacs-eq-index", broker_id,
                    f"{where} sorted-key index diverged from the equality map",
                ))
            for value, ids in aacs._equalities.items():
                if not ids:
                    violations.append(Violation(
                        "aacs-empty-row", broker_id,
                        f"{where} equality row {value} has an empty id list",
                    ))
            self._check_mask_bits(name, aacs.all_ids(), broker_id, where, violations)
        for name, sacs in summary.string_structures().items():
            where = f"{label} SACS[{name}]"
            for row in sacs.rows():
                if not row.ids:
                    violations.append(Violation(
                        "sacs-empty-row", broker_id,
                        f"{where} row {row.pattern.wire_text()!r} has an "
                        f"empty id list",
                    ))
            for value, row in sacs._literals.items():
                if not row.pattern.matches(value):
                    violations.append(Violation(
                        "sacs-literal-key", broker_id,
                        f"{where} literal row keyed {value!r} does not match "
                        f"its own key",
                    ))
            self._check_mask_bits(name, sacs.all_ids(), broker_id, where, violations)

    def _check_mask_bits(
        self,
        name: str,
        ids: Iterable[SubscriptionId],
        broker_id: int,
        where: str,
        violations: List[Violation],
    ) -> None:
        if name not in self.schema:
            violations.append(Violation(
                "schema-attr", broker_id,
                f"{where}: attribute {name!r} is not in the schema",
            ))
            return
        position = self.schema.position(name)
        bad = [sid for sid in ids if not sid.constrains(position)]
        for sid in itertools.islice(bad, 3):
            violations.append(Violation(
                "c3-accounting", broker_id,
                f"{where} lists {sid} whose c3 mask does not claim "
                f"attribute {name!r} — Algorithm 1's hit-count == "
                f"popcount(c3) rule is broken for it",
            ))

    def _check_local_liveness(self, broker, violations: List[Violation]) -> None:
        live = broker.store.ids()
        bid = broker.broker_id
        dead_kept = {
            sid for sid in broker.kept_summary.all_ids()
            if sid.broker == bid and sid not in live
        }
        for sid in sorted(dead_kept)[:3]:
            violations.append(Violation(
                "local-liveness", bid,
                f"kept summary lists own id {sid} with no store entry "
                f"(unsubscribed id resurrected?)",
            ))
        dead_pending = {sid for sid, _sub in broker.pending if sid not in live}
        for sid in sorted(dead_pending)[:3]:
            violations.append(Violation(
                "local-liveness", bid,
                f"pending batch lists {sid} with no store entry",
            ))
        if broker.period is not None:
            dead_delta = {
                sid for sid in broker.period.adds.all_ids()
                if sid.broker == bid and sid not in live
            }
            for sid in sorted(dead_delta)[:3]:
                violations.append(Violation(
                    "local-liveness", bid,
                    f"open period's adds list own id {sid} with no "
                    f"store entry — finish_period() would resurrect it",
                ))

    def _check_removal_tracking(self, broker, violations: List[Violation]) -> None:
        """Delta-mode removal scheduling: an own id queued for removal
        propagation must be dead in the store (the sets over-approximate
        towards *remote* staleness, never towards retracting live ids).
        """
        bid = broker.broker_id
        live = broker.store.ids()
        period = getattr(broker, "period", None)
        for label, queued in (
            ("removed_pending", getattr(broker, "removed_pending", set())),
            ("period removal block", period.removed if period else set()),
        ):
            alive = {sid for sid in queued if sid.broker == bid and sid in live}
            for sid in sorted(alive)[:3]:
                violations.append(Violation(
                    "removal-liveness", bid,
                    f"{label} queues own id {sid} that is still live in the "
                    f"store — its removal would retract an active "
                    f"subscription from remote summaries",
                ))

    def _check_suppression_accounting(self, broker, violations: List[Violation]) -> None:
        """Covered-id suppression: the frontier and the covered set must
        partition the store, the frontier mask must hold exactly the
        members' slots, every coverer must be a live frontier member that
        covers its ids, the inverse maps must agree, and covered ids must
        stay out of the kept summary and the pending batch (they never hit
        the wire)."""
        frontier = getattr(broker, "_frontier", None)
        if frontier is None:
            return
        bid = broker.broker_id
        store = broker.store
        live = store.ids()
        coverer_of = broker._coverer_of
        covered_by = broker._covered_by
        frontier_sids = set(broker._closures)
        members_mask = 0
        for sid in frontier_sids:
            members_mask |= store.index.bit_of(sid)
        if frontier != members_mask:
            violations.append(Violation(
                "suppression-accounting", bid,
                f"frontier mask disagrees with its members' slots on "
                f"{(frontier ^ members_mask).bit_count()} slots",
            ))
        for sid in sorted(frontier_sids - live)[:3]:
            violations.append(Violation(
                "suppression-accounting", bid,
                f"frontier member {sid} has no store entry",
            ))
        for sid in sorted(set(coverer_of) & frontier_sids)[:3]:
            violations.append(Violation(
                "suppression-accounting", bid,
                f"{sid} is both covered and a frontier member",
            ))
        uncovered = live - frontier_sids - set(coverer_of)
        for sid in sorted(uncovered)[:3]:
            violations.append(Violation(
                "suppression-accounting", bid,
                f"stored id {sid} is neither a frontier member nor covered "
                f"— it would never propagate and never match",
            ))
        inverse = {
            sid: coverer
            for coverer, kids in covered_by.items()
            for sid in kids
        }
        if inverse != coverer_of:
            drift = set(inverse.items()) ^ set(coverer_of.items())
            violations.append(Violation(
                "suppression-accounting", bid,
                f"_covered_by and _coverer_of diverged on "
                f"{sorted(drift)[:3]}",
            ))
        for sid, coverer in sorted(coverer_of.items())[:self.sample_limit or 0]:
            if coverer not in frontier_sids:
                violations.append(Violation(
                    "suppression-accounting", bid,
                    f"covered id {sid} points at coverer {coverer} that "
                    f"left the frontier",
                ))
                break
            general, specific = store.get(coverer), store.get(sid)
            if general is not None and specific is not None and not (
                subscription_covers(general, specific)
            ):
                violations.append(Violation(
                    "suppression-accounting", bid,
                    f"covered id {sid} is recorded under {coverer}, which "
                    f"does not cover it",
                ))
                break
        covered = set(coverer_of)
        if covered:
            own_kept = {
                sid for sid in broker.kept_summary.all_ids() if sid.broker == bid
            }
            for sid in sorted(covered & own_kept)[:3]:
                violations.append(Violation(
                    "suppression-accounting", bid,
                    f"covered id {sid} leaked into the kept summary",
                ))
            pending_sids = {sid for sid, _sub in broker.pending}
            for sid in sorted(covered & pending_sids)[:3]:
                violations.append(Violation(
                    "suppression-accounting", bid,
                    f"covered id {sid} leaked into the pending batch",
                ))
        if broker.suppressed != len(coverer_of):
            violations.append(Violation(
                "suppression-accounting", bid,
                f"suppressed counter {broker.suppressed} != covered-map "
                f"size {len(coverer_of)}",
            ))

    def _check_sampled_soundness(self, broker, violations: List[Violation]) -> None:
        if not self.sample_limit:
            return
        summary = broker.kept_summary
        kept_ids = summary.all_ids()
        bid = broker.broker_id
        sampled = 0
        for sid, subscription in broker.store.items():
            if sampled >= self.sample_limit:
                break
            if sid not in kept_ids:
                continue  # not yet propagated into the kept summary
            sampled += 1
            for name in subscription.attribute_names:
                constraints = subscription.constraints_on(name)
                for value in _sample_satisfying_values(
                    constraints, self.schema.type_of(name).is_string
                ):
                    admitted = summary.collect_attribute_ids(name, value)
                    if sid not in admitted:
                        violations.append(Violation(
                            "coverage-soundness", bid,
                            f"value {value!r} satisfies {sid}'s constraints "
                            f"on {name!r} but the summary does not admit the "
                            f"id (summaries may widen, never narrow)",
                        ))

    def _check_compiled_accounting(self, broker, violations: List[Violation]) -> None:
        compiled = getattr(broker, "_compiled", None)
        if compiled is None or compiled.is_stale:
            return  # staleness is legal: snapshots rebuild lazily
        if compiled.summary is not broker.kept_summary:
            return  # rebinding happens lazily on the next match
        bid = broker.broker_id
        ids = compiled._ids
        # Every slot sits in exactly one signature's members mask: the one
        # whose c3 is the slot's own attribute mask.
        expected: Dict[int, Set[int]] = {}
        for slot, sid in enumerate(ids):
            expected.setdefault(sid.attr_mask, set()).add(slot)
        actual = {
            c3: {slot for slot, bit in enumerate(bin(members)[:1:-1]) if bit == "1"}
            for c3, members, _names in compiled._signatures
        }
        if len(actual) != len(compiled._signatures) or actual != expected:
            violations.append(Violation(
                "compiled-accounting", bid,
                "compiled signature masks do not partition the slots by c3",
            ))
        if set(ids) != broker.kept_summary.all_ids():
            violations.append(Violation(
                "compiled-accounting", bid,
                "compiled snapshot id set diverged from the summary it "
                "claims to mirror",
            ))

    def _check_owner_accounting(self, broker, violations: List[Violation]) -> None:
        """The owner index mirrors the store, and the closure masks mirror
        the cover maps (both are what ``deliver`` trusts instead of
        expanding ids and re-checking them one by one)."""
        bid = broker.broker_id
        index = broker.store.index
        stored = dict(broker.store.items())
        slots = index.slots()
        if set(slots.values()) != set(stored):
            drift = set(slots.values()) ^ set(stored)
            violations.append(Violation(
                "owner-accounting", bid,
                f"owner index slots and store ids diverged on "
                f"{sorted(drift)[:3]}",
            ))
        expected: Dict[int, int] = {}
        for slot, sid in slots.items():
            expected[sid.attr_mask] = expected.get(sid.attr_mask, 0) | 1 << slot
        if index.members() != expected:
            violations.append(Violation(
                "owner-accounting", bid,
                "owner index signature masks do not partition the slots by c3",
            ))
        if index.canonical() != index.rebuilt(stored).canonical():
            violations.append(Violation(
                "owner-accounting", bid,
                "owner index tables diverged from a rebuild over the same "
                "slots",
            ))
        bit_of = index.bit_of
        recomputed = {}
        for sid in broker._closures:
            closure = bit_of(sid)
            for covered in broker._covered_by.get(sid, ()):
                closure |= bit_of(covered)
            recomputed[sid] = closure
        if broker._closures != recomputed:
            drift = {
                sid for sid in set(recomputed) | set(broker._closures)
                if recomputed.get(sid) != broker._closures.get(sid)
            }
            violations.append(Violation(
                "owner-accounting", bid,
                f"closure masks diverged from _covered_by on "
                f"{sorted(drift)[:3]}",
            ))

    def _check_dedup_capacity(self, broker, violations: List[Violation]) -> None:
        capacity = broker.dedup_capacity
        for label, size in (
            ("routed", broker.routed_dedup_size),
            ("delivered", broker.delivered_dedup_size),
        ):
            if size > capacity:
                violations.append(Violation(
                    "dedup-capacity", broker.broker_id,
                    f"{label} publish-id table holds {size} entries, "
                    f"capacity {capacity}",
                ))

    # -- parity helpers (paranoid match and delivery, and tests) ----------------

    @staticmethod
    def check_match_parity(broker, event) -> Optional[Violation]:
        """Compiled-vs-reference parity for one event (None when clean)."""
        from repro.summary.compiled import CompiledMatcher

        compiled = getattr(broker, "_compiled", None)
        if compiled is None or compiled.summary is not broker.kept_summary:
            compiled = CompiledMatcher(broker.kept_summary)
        fast = compiled.match(event)
        reference = broker.kept_summary.match(event)
        if fast == reference:
            return None
        return Violation(
            "match-parity", broker.broker_id,
            f"compiled/reference disagree on {event!r}: "
            f"only-compiled={sorted(fast - reference)[:3]} "
            f"only-reference={sorted(reference - fast)[:3]}",
        )

    @staticmethod
    def owner_oracle(
        broker, sids: Iterable[SubscriptionId], event
    ) -> Tuple[List[SubscriptionId], int]:
        """The per-candidate delivery walk: ``(confirmed ids ascending,
        false positives)``.  The notified ids expand through
        ``_covered_by`` and ``_ghost_covers`` transitively, then
        :meth:`SubscriptionStore.recheck` checks every id reached; every
        reached id it does not confirm, dead ones included, is a false
        positive."""
        expanded = set(sids)
        stack = list(expanded)
        while stack:
            candidate = stack.pop()
            for covered in (
                broker._covered_by.get(candidate),
                broker._ghost_covers.get(candidate),
            ):
                for dependent in covered or ():
                    if dependent not in expanded:
                        expanded.add(dependent)
                        stack.append(dependent)
        confirmed = broker.store.recheck(event, expanded)
        return sorted(confirmed), len(expanded) - len(confirmed)

    @classmethod
    def check_owner_parity(
        cls,
        broker,
        sids: Iterable[SubscriptionId],
        event,
        order: Sequence[SubscriptionId],
        false_positives: int,
    ) -> Optional[Violation]:
        """One delivery against :meth:`owner_oracle` (None when clean):
        confirmed ids, hand-off order and false positives must agree."""
        expected, expected_fp = cls.owner_oracle(broker, sids, event)
        if list(order) == expected and false_positives == expected_fp:
            return None
        return Violation(
            "owner-parity", broker.broker_id,
            f"owner index and recheck oracle disagree on {event!r}: "
            f"index handed off {list(order)[:3]} "
            f"({false_positives} false positives), oracle confirmed "
            f"{expected[:3]} ({expected_fp} false positives)",
        )


# -- sampling helpers -------------------------------------------------------------


def _row_key(interval: Interval) -> Tuple[float, int]:
    return (interval.lo, 1 if interval.lo_open else 0)


def _interval_sample(interval: Interval) -> Optional[float]:
    """One value inside ``interval`` (None only for pathological bounds)."""
    if interval.is_point:
        return interval.lo
    lo, hi = interval.lo, interval.hi
    if math.isinf(lo) and math.isinf(hi):
        return 0.0
    if math.isinf(lo):
        return hi - 1.0 if interval.hi_open else hi
    if math.isinf(hi):
        return lo + 1.0 if interval.lo_open else lo
    mid = (lo + hi) / 2.0
    return mid if interval.contains(mid) else None


def _sample_satisfying_values(
    constraints: Sequence[Constraint], is_string: bool, limit: int = 2
) -> List[object]:
    """Up to ``limit`` values satisfying an attribute's full conjunction.

    Best-effort by design: a constraint set we cannot solve contributes no
    samples (never a false violation).  Every returned value is verified
    against the ground-truth :meth:`Constraint.matches` before use.
    """
    if is_string:
        candidates: List[str] = []
        for constraint in constraints:
            operand = constraint.value
            if not isinstance(operand, str):  # pragma: no cover - defensive
                continue
            if constraint.operator is Operator.MATCHES:
                candidates.append(operand.replace("*", ""))
            elif constraint.operator is Operator.NE:
                candidates.append(operand + "_x")
            else:  # EQ, PREFIX, SUFFIX, CONTAINS: the operand satisfies itself
                candidates.append(operand)
        satisfying = []
        for value in candidates:
            if all(c.matches(value) for c in constraints):
                satisfying.append(value)
            if len(satisfying) >= limit:
                break
        return satisfying
    values: List[object] = []
    for interval in intervals_for_conjunction(constraints):
        sample = _interval_sample(interval)
        if sample is None:
            continue
        if all(c.matches(sample) for c in constraints):
            values.append(sample)
        if len(values) >= limit:
            break
    return values
