"""System health/load reporting.

Aggregates a running :class:`~repro.broker.system.SummaryPubSub` into one
structured report: per-broker load (events examined, deliveries, false
positives, storage), knowledge coverage, summary compaction ratios, and —
when the system runs over a fault-injected or reliable transport — the
transport-health line (ACKs, retransmissions, abandoned sends, BROCLI
re-routes, reliability byte overhead).  Examples print it; the
virtual-degrees ablation uses the imbalance metrics to quantify hot spots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.broker.system import SummaryPubSub
from repro.obs.metrics import collect_system_metrics

__all__ = [
    "BrokerReport",
    "SystemReport",
    "TransportReport",
    "build_report",
    "gini",
]


def gini(values: List[float]) -> float:
    """Gini coefficient of a non-negative load distribution.

    0 = perfectly even, ->1 = one broker does everything.  The standard
    mean-absolute-difference form; 0 for empty/all-zero inputs.
    """
    if not values or any(value < 0 for value in values):
        if any(value < 0 for value in values or []):
            raise ValueError("loads must be non-negative")
        return 0.0
    total = sum(values)
    if total == 0:
        return 0.0
    n = len(values)
    ordered = sorted(values)
    cumulative = 0.0
    for rank, value in enumerate(ordered, start=1):
        cumulative += rank * value
    return (2.0 * cumulative) / (n * total) - (n + 1.0) / n


@dataclass(frozen=True)
class BrokerReport:
    broker: int
    local_subscriptions: int
    events_examined: int
    deliveries: int
    false_positive_notifies: int
    summary_bytes: int
    knowledge_size: int  # |Merged_Brokers|


@dataclass(frozen=True)
class TransportReport:
    """Reliability/fault counters aggregated over both traffic phases.

    All-zero on a plain :class:`~repro.network.simulator.Network`; the
    interesting numbers appear under :class:`~repro.network.faults
    .LossyNetwork` and :class:`~repro.network.reliable.ReliableNetwork`.
    """

    acks: int
    retransmits: int
    send_failures: int
    reliability_bytes: int
    bytes_sent: int
    #: BROCLI searches re-routed around an unreachable broker.
    event_reroutes: int
    #: owner notifications abandoned (the owner itself was unreachable).
    notify_failures: int

    @property
    def overhead_fraction(self) -> float:
        """ACK + retransmission bytes as a share of all bytes sent."""
        return self.reliability_bytes / self.bytes_sent if self.bytes_sent else 0.0

    @property
    def quiet(self) -> bool:
        """True when no reliability machinery ever engaged."""
        return not (
            self.acks
            or self.retransmits
            or self.send_failures
            or self.event_reroutes
            or self.notify_failures
        )


@dataclass
class SystemReport:
    brokers: List[BrokerReport] = field(default_factory=list)
    transport: Optional[TransportReport] = None
    #: Flat dotted-name snapshot of the unified
    #: :class:`~repro.obs.metrics.MetricsRegistry` (``broker.*``,
    #: ``net.propagation.*``, ``net.event.*``, ``net.reliability.*``,
    #: ``router.*``, ``trace.*`` histogram summaries) — JSON-ready.
    metrics: Dict[str, object] = field(default_factory=dict)

    # -- aggregates -----------------------------------------------------------

    @property
    def total_subscriptions(self) -> int:
        return sum(b.local_subscriptions for b in self.brokers)

    @property
    def total_deliveries(self) -> int:
        return sum(b.deliveries for b in self.brokers)

    @property
    def total_storage_bytes(self) -> int:
        return sum(b.summary_bytes for b in self.brokers)

    @property
    def false_positive_rate(self) -> float:
        """Fraction of owner notifications the exact re-check discarded."""
        rejected = sum(b.false_positive_notifies for b in self.brokers)
        accepted = self.total_deliveries
        total = rejected + accepted
        return rejected / total if total else 0.0

    @property
    def examination_gini(self) -> float:
        """Load imbalance of the matching work (the hot-spot metric)."""
        return gini([float(b.events_examined) for b in self.brokers])

    def busiest(self, count: int = 3) -> List[BrokerReport]:
        return sorted(
            self.brokers, key=lambda b: (-b.events_examined, b.broker)
        )[:count]

    def __str__(self) -> str:
        lines = [
            f"{'broker':>6} {'subs':>6} {'examined':>9} {'delivered':>10} "
            f"{'fp':>6} {'storage':>9} {'knows':>6}"
        ]
        for report in self.brokers:
            lines.append(
                f"{report.broker:>6} {report.local_subscriptions:>6} "
                f"{report.events_examined:>9} {report.deliveries:>10} "
                f"{report.false_positive_notifies:>6} "
                f"{report.summary_bytes:>9} {report.knowledge_size:>6}"
            )
        lines.append(
            f"totals: {self.total_subscriptions} subs, "
            f"{self.total_deliveries} deliveries, "
            f"fp-rate {self.false_positive_rate:.1%}, "
            f"storage {self.total_storage_bytes:,} B, "
            f"examination gini {self.examination_gini:.2f}"
        )
        if self.transport is not None and not self.transport.quiet:
            t = self.transport
            lines.append(
                f"transport: acks={t.acks} retransmits={t.retransmits} "
                f"failures={t.send_failures} reroutes={t.event_reroutes} "
                f"notify-losses={t.notify_failures} "
                f"overhead {t.overhead_fraction:.1%} "
                f"({t.reliability_bytes:,} B)"
            )
        if self.metrics:
            lines.append(
                f"metrics: {len(self.metrics)} instruments "
                f"(full snapshot in .metrics)"
            )
        return "\n".join(lines)


def _transport_report(system: SummaryPubSub) -> TransportReport:
    phases = (system.propagation_metrics, system.event_metrics)
    router = system.router
    return TransportReport(
        acks=sum(m.acks for m in phases),
        retransmits=sum(m.retransmits for m in phases),
        send_failures=sum(m.send_failures for m in phases),
        reliability_bytes=sum(m.reliability_bytes for m in phases),
        bytes_sent=sum(m.bytes_sent for m in phases),
        event_reroutes=getattr(router, "event_reroutes", 0),
        notify_failures=getattr(router, "notify_failures", 0),
    )


def build_report(system: SummaryPubSub) -> SystemReport:
    """Snapshot the system's per-broker counters into a report."""
    report = SystemReport(
        transport=_transport_report(system),
        metrics=collect_system_metrics(system).snapshot(),
    )
    for broker_id in sorted(system.brokers):
        broker = system.brokers[broker_id]
        report.brokers.append(
            BrokerReport(
                broker=broker_id,
                local_subscriptions=len(broker.store),
                events_examined=broker.events_examined,
                deliveries=broker.delivered,
                false_positive_notifies=broker.false_positive_notifies,
                summary_bytes=system.wire.summary_size(broker.kept_summary),
                knowledge_size=len(broker.merged_brokers),
            )
        )
    return report
