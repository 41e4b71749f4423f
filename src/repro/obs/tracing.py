"""Event-lifecycle tracing — structured spans for the pub/sub pipeline.

The paper's evaluation counts bytes and hops; a production system also has
to answer "*where did this event spend its time*" and "*which stage
regressed*".  :class:`Tracer` records one :class:`Span` per pipeline stage:

====================  ==========================================================
span kind             emitted by
====================  ==========================================================
``publish``           :meth:`repro.broker.routing.EventRouter.publish_batch` —
                      one injected event, ``trace_id = publish_id``, from
                      minting to the end of its burst's ingress hop
``route_hop``         one Algorithm-3 hop of one event at one broker (zero
                      duration; fields: ``matched``, ``brocli_in``,
                      ``brocli_out``, and ``forwarded_to`` or
                      ``search_complete``)
``summary_match``     the kept-summary match of one burst of events at one
                      broker (fields: ``burst``, ``matched``; ``trace_id`` is
                      the burst's first publish id)
``notify``            one NOTIFY send to an owning broker (zero duration)
``recheck``           owner-side exact re-check: the owner-index match of
                      the candidates (fields: ``candidates``,
                      ``confirmed``, ``false_positives``)
``delivery``          confirmed deliveries of one re-check, handed to the
                      consumers in one call (zero duration)
``propagation_period``  one full Algorithm-2 period
``summary_send``      one period frame sent inside a period, mostly a
                      SummaryDeltaMessage (zero duration; fields:
                      ``target``, ``merged_brokers``, ``ids``)
``delta_rejected``    a SummaryDeltaMessage that did not chain on, answered
                      with a SummaryRequestMessage (zero duration;
                      ``trace_id`` is the frame's generation)
``full_refresh``      one full-refresh cycle
====================  ==========================================================

Every span carries its broker, a ``trace_id`` correlating all spans of one
publish (or the period ordinal for propagation spans), a start offset and a
duration in microseconds, plus free-form ``fields``.  Export is JSONL —
one span per line — consumed by :mod:`repro.analysis.tracereport`.

Overhead discipline: the system default is :data:`NULL_TRACER`, whose
``enabled`` flag is False; hot paths guard with ``if tracer.enabled`` so an
untraced run pays a single attribute check per stage.  A live tracer costs
two ``perf_counter`` calls and one list append per span.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER", "PIPELINE_KINDS"]

#: Span kinds in event-pipeline order; the trace report renders stages in
#: this order (unknown kinds sort after, alphabetically).  The vocabulary
#: is open — extensions may record their own kinds.
PIPELINE_KINDS: Tuple[str, ...] = (
    "publish",
    "route_hop",
    "summary_match",
    "notify",
    "recheck",
    "delivery",
    "propagation_period",
    "summary_send",
    "full_refresh",
)


@dataclass(frozen=True)
class Span:
    """One recorded pipeline stage."""

    kind: str
    broker: int  # -1 when no single broker is involved (e.g. a period)
    trace_id: int  # publish_id, or period ordinal for propagation spans
    t_us: float  # start, microseconds since the tracer's epoch
    dur_us: float  # 0.0 for instantaneous event records
    seq: int  # global record order (stable tie-break for sorting)
    fields: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "kind": self.kind,
            "broker": self.broker,
            "trace": self.trace_id,
            "t_us": round(self.t_us, 3),
            "dur_us": round(self.dur_us, 3),
            "seq": self.seq,
        }
        if self.fields:
            out["fields"] = self.fields
        return out


class _SpanHandle:
    """Context manager measuring one span; extra fields via :meth:`note`."""

    __slots__ = ("_tracer", "_kind", "_broker", "_trace_id", "_fields", "_start")

    def __init__(self, tracer: "Tracer", kind: str, broker: int, trace_id: int,
                 fields: Dict[str, object]):
        self._tracer = tracer
        self._kind = kind
        self._broker = broker
        self._trace_id = trace_id
        self._fields = fields
        self._start = 0.0

    def note(self, **fields: object) -> None:
        """Attach result fields discovered while the span is open."""
        self._fields.update(fields)

    def __enter__(self) -> "_SpanHandle":
        self._start = self._tracer._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        tracer = self._tracer
        end = tracer._clock()
        if exc_type is not None:
            self._fields.setdefault("error", exc_type.__name__)
        tracer._append(
            self._kind,
            self._broker,
            self._trace_id,
            (self._start - tracer._epoch) * 1e6,
            (end - self._start) * 1e6,
            self._fields,
        )


class Tracer:
    """Collects :class:`Span` records; export as JSONL for the trace report."""

    enabled = True

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._epoch = clock()
        self.spans: List[Span] = []
        self._seq = 0

    # -- recording -----------------------------------------------------------

    def span(self, kind: str, broker: int = -1, trace_id: int = 0,
             **fields: object) -> _SpanHandle:
        """A context manager timing one stage::

            with tracer.span("summary_match", broker=3, trace_id=pid) as s:
                matched = broker.match_kept_many([event])[0]
                s.note(matched=len(matched))
        """
        return _SpanHandle(self, kind, broker, trace_id, dict(fields))

    def record(self, kind: str, broker: int = -1, trace_id: int = 0,
               since: Optional[float] = None, **fields: object) -> None:
        """An instantaneous (zero-duration) event record — or, given
        ``since`` (a :meth:`now` reading), the span from then until now."""
        end = self._clock()
        start = end if since is None else since
        self._append(
            kind, broker, trace_id, (start - self._epoch) * 1e6,
            (end - start) * 1e6, fields,
        )

    def now(self) -> float:
        """A clock reading to pass to :meth:`record` as ``since``."""
        return self._clock()

    def _append(self, kind: str, broker: int, trace_id: int, t_us: float,
                dur_us: float, fields: Dict[str, object]) -> None:
        self.spans.append(Span(kind, broker, trace_id, t_us, dur_us, self._seq, fields))
        self._seq += 1

    # -- introspection ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.spans)

    def spans_of(self, kind: str) -> List[Span]:
        return [span for span in self.spans if span.kind == kind]

    def traces(self) -> Dict[int, List[Span]]:
        """Spans grouped by ``trace_id``, each group in record order."""
        grouped: Dict[int, List[Span]] = {}
        for span in self.spans:
            grouped.setdefault(span.trace_id, []).append(span)
        return grouped

    def clear(self) -> None:
        self.spans.clear()

    # -- export ----------------------------------------------------------------

    def jsonl_lines(self) -> Iterator[str]:
        for span in self.spans:
            yield json.dumps(span.as_dict(), sort_keys=True)

    def export_jsonl(self, path: Union[str, Path]) -> Path:
        """Write one JSON object per span; returns the written path."""
        target = Path(path)
        with target.open("w", encoding="utf-8") as handle:
            for line in self.jsonl_lines():
                handle.write(line)
                handle.write("\n")
        return target

    def __repr__(self) -> str:
        return f"Tracer({len(self.spans)} spans)"


class _NullSpanHandle:
    """Shared do-nothing span for :class:`NullTracer`."""

    __slots__ = ()

    def note(self, **fields: object) -> None:
        pass

    def __enter__(self) -> "_NullSpanHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpanHandle()


class NullTracer:
    """The default tracer: records nothing, costs one attribute check."""

    enabled = False
    spans: Tuple[Span, ...] = ()

    def span(self, kind: str, broker: int = -1, trace_id: int = 0,
             **fields: object) -> _NullSpanHandle:
        return _NULL_SPAN

    def record(self, kind: str, broker: int = -1, trace_id: int = 0,
               since: Optional[float] = None, **fields: object) -> None:
        pass

    def now(self) -> float:
        return 0.0

    def __len__(self) -> int:
        return 0

    def __repr__(self) -> str:
        return "NullTracer()"


#: Process-wide shared no-op tracer (safe: it holds no state).
NULL_TRACER = NullTracer()
