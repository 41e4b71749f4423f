"""Trace report — per-stage latency breakdown from recorded spans.

Consumes the JSONL produced by :meth:`repro.obs.tracing.Tracer
.export_jsonl` (or a live span list) and answers the two questions the
byte/hop metrics cannot: *where does an event spend its time* and *which
pipeline stage regressed*.  The report has three parts:

1. **Stage table** — per span kind (in pipeline order): count, total,
   mean, p50/p95, max duration.  Zero-duration record kinds (``route_hop``,
   ``notify``, ``delivery``, ``summary_send``) report counts only.
2. **Publish digest** — per publish trace: hop count, kept-summary
   matches (the ``matched`` of its ``route_hop`` records, so a burst's
   events each count their own), notifications, deliveries and
   end-to-end duration (from the start of the ``publish``
   span to the end of the trace's last span); the report lists the slowest.
3. **Propagation digest** — per period: duration and summary sends.

Render from the command line::

    PYTHONPATH=src python -m repro.analysis.tracereport trace.jsonl
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Union

from repro.obs.metrics import Histogram
from repro.obs.tracing import PIPELINE_KINDS, Span

__all__ = [
    "StageStats",
    "PublishDigest",
    "TraceReport",
    "load_spans",
    "build_trace_report",
]


@dataclass(frozen=True)
class StageStats:
    """Aggregate timing of one span kind."""

    kind: str
    count: int
    total_us: float
    mean_us: float
    p50_us: float
    p95_us: float
    max_us: float

    @property
    def timed(self) -> bool:
        """False for pure event records (no measured duration)."""
        return self.total_us > 0.0


@dataclass(frozen=True)
class PublishDigest:
    """One publish trace: the summarized Algorithm-3 walk."""

    trace_id: int
    origin: int
    hops: int
    matches: int
    notifies: int
    deliveries: int
    duration_us: float


def load_spans(path: Union[str, Path]) -> List[Span]:
    """Parse a tracer JSONL export back into :class:`Span` records."""
    spans: List[Span] = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                raw = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{line_no}: invalid JSON: {exc}") from exc
            spans.append(Span(
                kind=raw["kind"],
                broker=raw.get("broker", -1),
                trace_id=raw.get("trace", 0),
                t_us=float(raw.get("t_us", 0.0)),
                dur_us=float(raw.get("dur_us", 0.0)),
                seq=int(raw.get("seq", len(spans))),
                fields=raw.get("fields", {}),
            ))
    return spans


def _kind_order(kind: str) -> tuple:
    try:
        return (0, PIPELINE_KINDS.index(kind), kind)
    except ValueError:
        return (1, 0, kind)


class TraceReport:
    """Structured + renderable view over one trace's spans."""

    def __init__(self, spans: Sequence[Span], slowest: int = 5):
        self.spans = list(spans)
        self.slowest = max(0, slowest)
        self.stages: List[StageStats] = self._build_stages()
        self.publishes: List[PublishDigest] = self._build_publishes()

    # -- aggregation --------------------------------------------------------

    def _build_stages(self) -> List[StageStats]:
        histograms: Dict[str, Histogram] = {}
        for span in self.spans:
            histogram = histograms.get(span.kind)
            if histogram is None:
                histogram = histograms[span.kind] = Histogram(span.kind)
            histogram.observe(span.dur_us)
        stages = []
        for kind in sorted(histograms, key=_kind_order):
            histogram = histograms[kind]
            stages.append(StageStats(
                kind=kind,
                count=histogram.count,
                total_us=round(histogram.total, 3),
                mean_us=round(histogram.mean, 3),
                p50_us=round(histogram.percentile(0.50), 3),
                p95_us=round(histogram.percentile(0.95), 3),
                max_us=round(histogram.max, 3) if histogram.count else 0.0,
            ))
        return stages

    def _build_publishes(self) -> List[PublishDigest]:
        digests: List[PublishDigest] = []
        for trace_id, spans in self._group_by_trace().items():
            publish = [s for s in spans if s.kind == "publish"]
            if not publish:
                continue  # propagation traces have no publish root
            hops = [s for s in spans if s.kind == "route_hop"]
            start = publish[0].t_us
            end = max(s.t_us + s.dur_us for s in spans)
            digests.append(PublishDigest(
                trace_id=trace_id,
                origin=publish[0].broker,
                hops=len(hops),
                matches=sum(int(s.fields.get("matched", 0)) for s in hops),
                notifies=len([s for s in spans if s.kind == "notify"]),
                deliveries=sum(
                    int(s.fields.get("count", 1))
                    for s in spans if s.kind == "delivery"
                ),
                duration_us=round(end - start, 3),
            ))
        digests.sort(key=lambda d: (-d.duration_us, d.trace_id))
        return digests

    def _group_by_trace(self) -> Dict[int, List[Span]]:
        grouped: Dict[int, List[Span]] = {}
        for span in self.spans:
            grouped.setdefault(span.trace_id, []).append(span)
        return grouped

    def stage(self, kind: str) -> StageStats:
        for stats in self.stages:
            if stats.kind == kind:
                return stats
        raise KeyError(f"no spans of kind {kind!r} in this trace")

    # -- rendering ----------------------------------------------------------

    def render(self) -> str:
        lines = [
            f"{len(self.spans)} spans, {len(self._group_by_trace())} traces, "
            f"{len(self.publishes)} publishes",
            "",
            f"{'stage':<20} {'count':>7} {'total_us':>12} {'mean_us':>10} "
            f"{'p50_us':>10} {'p95_us':>10} {'max_us':>10}",
        ]
        for stats in self.stages:
            if stats.timed:
                lines.append(
                    f"{stats.kind:<20} {stats.count:>7} {stats.total_us:>12.1f} "
                    f"{stats.mean_us:>10.1f} {stats.p50_us:>10.1f} "
                    f"{stats.p95_us:>10.1f} {stats.max_us:>10.1f}"
                )
            else:
                lines.append(
                    f"{stats.kind:<20} {stats.count:>7} {'(records)':>12}"
                )
        if self.publishes and self.slowest:
            lines.append("")
            lines.append(
                f"slowest publishes ({min(self.slowest, len(self.publishes))} "
                f"of {len(self.publishes)}):"
            )
            lines.append(
                f"{'trace':>16} {'origin':>7} {'hops':>5} {'matches':>8} "
                f"{'notifies':>9} {'delivered':>10} {'dur_us':>10}"
            )
            for digest in self.publishes[: self.slowest]:
                lines.append(
                    f"{digest.trace_id:>16x} {digest.origin:>7} "
                    f"{digest.hops:>5} {digest.matches:>8} "
                    f"{digest.notifies:>9} {digest.deliveries:>10} "
                    f"{digest.duration_us:>10.1f}"
                )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"TraceReport({len(self.spans)} spans, {len(self.stages)} stages)"


def build_trace_report(
    spans_or_tracer: Union[Sequence[Span], Iterable[Span], "object"],
    slowest: int = 5,
) -> TraceReport:
    """Build a report from a span sequence or anything with ``.spans``."""
    spans = getattr(spans_or_tracer, "spans", spans_or_tracer)
    return TraceReport(list(spans), slowest=slowest)


def main(argv: Sequence[str] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 1:
        print("usage: python -m repro.analysis.tracereport <trace.jsonl>",
              file=sys.stderr)
        return 2
    report = build_trace_report(load_spans(args[0]))
    print(report.render())
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI shim
    raise SystemExit(main())
