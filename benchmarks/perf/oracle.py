"""Correctness of what the sink received, and the failure ledger.

Three checks, cheapest first:

* every delivery is re-checked against its subscription's predicate and
  against the event the generator actually sent under that sequence
  number — a *false delivery* fails the run outright;
* no ``(sid, seq)`` pair may arrive twice;
* on a deterministic sample of sequence numbers the set of resident sink
  subscriptions that brute-force ``Subscription.matches`` expects must
  equal the set delivered (missing deliveries).  The sample is sized so
  the brute force stays within :data:`ORACLE_BUDGET_MATCHES` predicate
  evaluations (a few seconds of CPU).

Subscriptions that come and go during the run (``churn_mixed``) take part
in the first two checks only: whether an event published around a
subscribe or unsubscribe is delivered depends on where the propagation
period stood, and both outcomes are correct.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Sequence, Set, Tuple

from repro.model.events import Event
from repro.model.ids import SubscriptionId
from repro.model.subscriptions import Subscription

__all__ = ["Ledger", "ORACLE_BUDGET_MATCHES", "check_deliveries", "sample_stride"]

ORACLE_BUDGET_MATCHES = 1_500_000

#: One arrival at the sink: (sid, event as received, perf_counter time).
Delivery = Tuple[SubscriptionId, Event, float]


@dataclass
class Ledger:
    """Operations attempted and failed, by kind."""

    expected_deliveries: int = 0
    missing: int = 0
    duplicated: int = 0
    false_deliveries: int = 0
    requests: int = 0
    request_errors: int = 0
    examples: List[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return self.expected_deliveries + self.requests

    @property
    def failed(self) -> int:
        return self.missing + self.duplicated + self.request_errors

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def note(self, text: str) -> None:
        if len(self.examples) < 10:
            self.examples.append(text)

    def record_request(self, ok: bool, what: str = "") -> None:
        self.requests += 1
        if not ok:
            self.request_errors += 1
            self.note(f"request failed: {what}")


def sample_stride(events: int, residents: int) -> int:
    """Check every ``stride``-th sequence number, so that events/stride x
    residents stays within the oracle's budget."""
    affordable = max(1, ORACLE_BUDGET_MATCHES // max(1, residents))
    return max(1, -(-events // affordable))


def check_deliveries(
    ledger: Ledger,
    deliveries: Iterable[Delivery],
    subscriptions: Dict[SubscriptionId, Subscription],
    residents: Sequence[SubscriptionId],
    sent: Callable[[int], Event],
    seq_range: range,
    skip: Set[SubscriptionId] = frozenset(),
) -> Dict[int, float]:
    """Run all three checks; returns seq -> time of its first delivery.

    ``subscriptions`` maps every sid the sink ever registered to its
    predicate; ``residents`` are the ones alive for the whole run (the
    missing-delivery check covers exactly these); ``sent(seq)`` rebuilds
    the event the generator published under any ``seq`` of ``seq_range``
    (negative ones are set-up canaries: checked when delivered, never
    expected); ``skip`` are harness ids (the marker) whose deliveries are
    flow control, not results.
    """
    first_arrival: Dict[int, float] = {}
    seen: Set[Tuple[SubscriptionId, int]] = set()
    stride = sample_stride(len(seq_range), len(residents))
    delivered_on_sample: Dict[int, Set[SubscriptionId]] = {}
    for sid, event, arrived in deliveries:
        if sid in skip:
            continue
        seq = int(event.value("when"))
        subscription = subscriptions.get(sid)
        if subscription is None or not subscription.matches(event) or (
            seq not in seq_range or event != sent(seq)
        ):
            ledger.false_deliveries += 1
            ledger.note(f"false delivery: {sid} got {event!r}")
            continue
        if (sid, seq) in seen:
            ledger.duplicated += 1
            ledger.note(f"duplicate delivery: {sid} seq {seq}")
            continue
        seen.add((sid, seq))
        first_arrival.setdefault(seq, arrived)
        if seq >= 0 and seq % stride == 0:
            delivered_on_sample.setdefault(seq, set()).add(sid)
    resident_set = set(residents)
    resident_predicates = [(sid, subscriptions[sid]) for sid in residents]
    for seq in seq_range:
        if seq < 0 or seq % stride:
            continue  # canaries race the first propagation period by design
        event = sent(seq)
        expected = {sid for sid, sub in resident_predicates if sub.matches(event)}
        got = delivered_on_sample.get(seq, set()) & resident_set
        ledger.expected_deliveries += len(expected)
        if expected - got:
            ledger.missing += len(expected - got)
            ledger.note(f"missing: seq {seq} expected {sorted(expected - got)[:3]}")
    return first_arrival
