"""MetricsRegistry — one namespace for every counter the system keeps.

Before this module each layer hoarded its own ad-hoc integers:
:class:`~repro.broker.broker.SummaryBroker` kept ``events_examined`` /
``false_positive_notifies`` / ``duplicates_suppressed``;
:class:`~repro.network.metrics.NetworkMetrics` kept the byte/hop ledger
(twice — one instance per traffic phase); the reliable transport counted
ACKs and retransmissions; the router counted re-routes; experiments summed
whatever subset they remembered to.  :func:`collect_system_metrics` pulls
all of them into a single flat, dotted-name registry so reports, CI checks
and dashboards read one structure:

* ``broker.events_examined`` (counter) — summed over brokers
* ``broker.subscriptions`` / ``broker.kept_ids`` (gauges)
* ``net.propagation.bytes_sent`` / ``net.event.bytes_sent`` … (counters)
* ``net.reliability.acks`` / ``…retransmits`` / ``…send_failures``
* ``router.event_reroutes`` / ``router.notify_failures``
* ``trace.summary_match.dur_us`` … (histograms, when a tracer is attached)

The registry itself is plain and reusable: :class:`Counter` (monotone),
:class:`Gauge` (set-to-value), :class:`Histogram` (count/sum/min/max plus a
bounded sample for percentile estimates).  ``snapshot()`` flattens
everything into JSON-ready scalars; :class:`~repro.analysis.report
.SystemReport` embeds that snapshot.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "collect_system_metrics",
]

Number = Union[int, float]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: Number = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A point-in-time level (can move both ways)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value

    def add(self, amount: Number) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """Distribution summary: count/sum/min/max + a bounded value sample.

    The sample keeps the first ``sample_limit`` observations (deterministic
    and cheap; spans arrive in bounded volume per run) and is what
    :meth:`percentile` interpolates over — adequate for trace reporting,
    not for unbounded production streams.
    """

    __slots__ = ("name", "count", "total", "min", "max", "_sample", "sample_limit")

    def __init__(self, name: str, sample_limit: int = 4096):
        if sample_limit < 1:
            raise ValueError("sample_limit must be positive")
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._sample: List[float] = []
        self.sample_limit = sample_limit

    def observe(self, value: Number) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self._sample) < self.sample_limit:
            self._sample.append(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, fraction: float) -> float:
        """Nearest-rank percentile over the retained sample (0 if empty)."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be within [0, 1]")
        if not self._sample:
            return 0.0
        ordered = sorted(self._sample)
        rank = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
        return ordered[rank]

    def summary(self) -> Dict[str, float]:
        if not self.count:
            return {"count": 0, "sum": 0.0, "mean": 0.0, "min": 0.0, "max": 0.0,
                    "p50": 0.0, "p95": 0.0}
        return {
            "count": self.count,
            "sum": round(self.total, 3),
            "mean": round(self.mean, 3),
            "min": round(self.min, 3),
            "max": round(self.max, 3),
            "p50": round(self.percentile(0.50), 3),
            "p95": round(self.percentile(0.95), 3),
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name}, n={self.count}, mean={self.mean:.1f})"


class MetricsRegistry:
    """Get-or-create instrument registry with dotted names.

    A name is bound to one instrument kind for the registry's lifetime;
    asking for the same name as a different kind raises, which catches the
    classic "two modules disagree about what ``x.y`` is" drift.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, Union[Counter, Gauge, Histogram]] = {}

    def _get(self, name: str, kind):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = self._instruments[name] = kind(name)
        elif not isinstance(instrument, kind):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}, requested {kind.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def names(self) -> List[str]:
        return sorted(self._instruments)

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def snapshot(self) -> Dict[str, Union[Number, Dict[str, float]]]:
        """Flatten to JSON-ready scalars (histograms become summary dicts)."""
        out: Dict[str, Union[Number, Dict[str, float]]] = {}
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            if isinstance(instrument, Histogram):
                out[name] = instrument.summary()
            else:
                out[name] = instrument.value
        return out

    def render(self) -> str:
        """An aligned, human-readable dump of the snapshot."""
        rows = []
        for name, value in self.snapshot().items():
            if isinstance(value, dict):
                body = (
                    f"n={value['count']} mean={value['mean']} "
                    f"p95={value['p95']} max={value['max']}"
                )
            else:
                body = str(value)
            rows.append((name, body))
        width = max((len(name) for name, _ in rows), default=0)
        return "\n".join(f"{name.ljust(width)}  {body}" for name, body in rows)

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self._instruments)} instruments)"


# -- system collection ----------------------------------------------------------


def collect_system_metrics(system, registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Snapshot a :class:`~repro.broker.system.SummaryPubSub` into a registry.

    Unifies the broker counters, both per-phase :class:`NetworkMetrics`
    ledgers (via :meth:`NetworkMetrics.contribute`), the router's
    reliability bookkeeping, the propagation engine, and — when the system
    carries a live :class:`~repro.obs.tracing.Tracer` — per-stage duration
    histograms from the recorded spans.
    """
    registry = registry if registry is not None else MetricsRegistry()

    # -- broker-layer counters (summed) and levels --
    subs = kept_ids = pending = 0
    examined = deliveries = false_positives = suppressed = 0
    for broker in system.brokers.values():
        subs += len(broker.store)
        kept_ids += len(broker.kept_summary.all_ids())
        pending += len(broker.pending)
        examined += broker.events_examined
        deliveries += broker.delivered
        false_positives += broker.false_positive_notifies
        suppressed += broker.duplicates_suppressed
    registry.gauge("broker.count").set(len(system.brokers))
    registry.gauge("broker.subscriptions").set(subs)
    registry.gauge("broker.kept_ids").set(kept_ids)
    registry.gauge("broker.pending_subscriptions").set(pending)
    registry.counter("broker.events_examined").inc(examined)
    registry.counter("broker.deliveries").inc(deliveries)
    registry.counter("broker.false_positive_notifies").inc(false_positives)
    registry.counter("broker.duplicates_suppressed").inc(suppressed)
    registry.gauge("broker.summary_storage_bytes").set(system.total_summary_storage())

    # -- network phases --
    system.propagation_metrics.contribute(registry, "net.propagation")
    system.event_metrics.contribute(registry, "net.event")
    registry.counter("net.reliability.acks").inc(
        system.propagation_metrics.acks + system.event_metrics.acks
    )
    registry.counter("net.reliability.retransmits").inc(
        system.propagation_metrics.retransmits + system.event_metrics.retransmits
    )
    registry.counter("net.reliability.send_failures").inc(
        system.propagation_metrics.send_failures + system.event_metrics.send_failures
    )
    registry.counter("net.reliability.bytes").inc(
        system.propagation_metrics.reliability_bytes
        + system.event_metrics.reliability_bytes
    )
    outstanding = getattr(system.network, "outstanding_transfers", None)
    if outstanding is not None:
        registry.gauge("net.reliability.outstanding_transfers").set(outstanding)

    # -- router / propagation engine --
    router = system.router
    registry.counter("router.event_reroutes").inc(getattr(router, "event_reroutes", 0))
    registry.counter("router.notify_failures").inc(getattr(router, "notify_failures", 0))
    registry.counter("router.searches_abandoned").inc(
        getattr(router, "searches_abandoned", 0)
    )
    registry.counter("propagation.periods_run").inc(system.propagation.periods_run)

    # -- trace-derived stage timings --
    tracer = getattr(system, "tracer", None)
    if tracer is not None and getattr(tracer, "enabled", False):
        for span in tracer.spans:
            if span.dur_us > 0.0:
                registry.histogram(f"trace.{span.kind}.dur_us").observe(span.dur_us)
            else:
                registry.counter(f"trace.{span.kind}.records").inc()
    return registry
