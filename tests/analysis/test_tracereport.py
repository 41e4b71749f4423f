"""Trace report tests: aggregation, digests, JSONL round trip, CLI."""

from __future__ import annotations

import pytest

from repro.analysis.tracereport import (
    TraceReport,
    build_trace_report,
    load_spans,
    main,
)
from repro.broker.system import SummaryPubSub
from repro.model import Event, parse_subscription
from repro.network import Topology
from repro.obs.tracing import Span, Tracer


def _span(kind, broker=0, trace_id=1, dur_us=0.0, seq=0, **fields):
    return Span(kind, broker, trace_id, t_us=float(seq), dur_us=dur_us,
                seq=seq, fields=fields)


@pytest.fixture
def publish_trace():
    """A hand-built two-publish trace with a full pipeline tail."""
    return [
        # trace 1: 3 hops, 2 matches, 1 notify, 1 recheck, 1 delivery
        _span("publish", broker=0, trace_id=1, dur_us=100.0, seq=0),
        _span("route_hop", broker=0, trace_id=1, dur_us=10.0, seq=1),
        _span("route_hop", broker=2, trace_id=1, dur_us=12.0, seq=2,
              matched=2),
        _span("route_hop", broker=5, trace_id=1, dur_us=14.0, seq=3),
        _span("summary_match", broker=2, trace_id=1, dur_us=5.0, seq=4),
        _span("notify", broker=2, trace_id=1, seq=5, owner=5),
        _span("recheck", broker=5, trace_id=1, dur_us=3.0, seq=6,
              candidates=2, confirmed=1),
        _span("delivery", broker=5, trace_id=1, seq=7, count=1),
        # trace 2: faster, no tail
        _span("publish", broker=3, trace_id=2, dur_us=40.0, seq=8),
        _span("route_hop", broker=3, trace_id=2, dur_us=8.0, seq=9),
        # a propagation trace: no publish root -> no digest
        _span("propagation_period", broker=-1, trace_id=7, dur_us=200.0,
              seq=10),
        _span("summary_send", broker=1, trace_id=7, seq=11),
    ]


def test_stage_table_in_pipeline_order(publish_trace):
    report = TraceReport(publish_trace)
    kinds = [stats.kind for stats in report.stages]
    assert kinds == [
        "publish", "route_hop", "summary_match", "notify", "recheck",
        "delivery", "propagation_period", "summary_send",
    ]
    hop = report.stage("route_hop")
    assert hop.count == 4
    assert hop.total_us == pytest.approx(44.0)
    assert hop.max_us == pytest.approx(14.0)
    assert hop.timed
    assert not report.stage("notify").timed  # zero-duration record kind
    with pytest.raises(KeyError):
        report.stage("full_refresh")


def test_unknown_kinds_sort_after_pipeline(publish_trace):
    spans = publish_trace + [_span("custom_ext_stage", dur_us=1.0, seq=99)]
    kinds = [stats.kind for stats in TraceReport(spans).stages]
    assert kinds[-1] == "custom_ext_stage"


def test_publish_digests_sorted_slowest_first(publish_trace):
    report = TraceReport(publish_trace)
    assert [d.trace_id for d in report.publishes] == [1, 2]
    slow = report.publishes[0]
    assert slow.origin == 0
    assert slow.hops == 3
    assert slow.matches == 2
    assert slow.notifies == 1
    assert slow.deliveries == 1
    assert slow.duration_us == pytest.approx(100.0)
    fast = report.publishes[1]
    assert (fast.hops, fast.matches, fast.deliveries) == (1, 0, 0)


def test_burst_digests_count_each_events_matches(schema):
    """A burst shares one ``summary_match`` span, but each publish's digest
    counts its own event's matches (the ``matched`` of its ``route_hop``)."""
    tracer = Tracer()
    system = SummaryPubSub(Topology.line(2), schema, tracer=tracer)
    system.subscribe(0, parse_subscription(schema, "price < 10"))
    system.run_propagation_period()
    result = system.publish_batch(0, [Event.of(price=1.0), Event.of(price=2.0)])
    assert len(result.deliveries) == 2
    digests = sorted(build_trace_report(tracer).publishes, key=lambda d: d.trace_id)
    assert [d.matches for d in digests] == [1, 1]


def test_render_contains_table_and_digest(publish_trace):
    text = TraceReport(publish_trace).render()
    assert "12 spans" in text
    assert "route_hop" in text
    assert "(records)" in text  # notify/delivery rows are count-only
    assert "slowest publishes" in text


def test_build_trace_report_accepts_tracer_or_list(publish_trace):
    tracer = Tracer()
    tracer.record("notify", broker=1, trace_id=3)
    assert build_trace_report(tracer).stage("notify").count == 1
    assert build_trace_report(publish_trace).stage("publish").count == 2


def test_jsonl_round_trip(tmp_path, publish_trace):
    tracer = Tracer()
    tracer.spans = list(publish_trace)
    path = tracer.export_jsonl(tmp_path / "trace.jsonl")
    loaded = load_spans(path)
    assert [s.kind for s in loaded] == [s.kind for s in publish_trace]
    assert loaded[0].fields == publish_trace[0].fields
    report = build_trace_report(loaded)
    assert report.stage("route_hop").count == 4


def test_load_spans_reports_bad_lines(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"kind": "publish"}\nnot json\n')
    with pytest.raises(ValueError, match="bad.jsonl:2"):
        load_spans(path)


def test_load_spans_skips_blank_lines(tmp_path):
    path = tmp_path / "sparse.jsonl"
    path.write_text('\n{"kind": "notify"}\n\n')
    (span,) = load_spans(path)
    assert span.kind == "notify"


def test_cli_main(tmp_path, capsys, publish_trace):
    tracer = Tracer()
    tracer.spans = list(publish_trace)
    path = tracer.export_jsonl(tmp_path / "trace.jsonl")
    assert main([str(path)]) == 0
    out = capsys.readouterr().out
    assert "slowest publishes" in out
    assert main([]) == 2  # usage error


def test_report_from_live_traced_system(small_workload):
    """End-to-end: a traced system's spans aggregate without surprises."""
    from repro.broker.system import SummaryPubSub
    from repro.network.topology import paper_example_tree

    tracer = Tracer()
    system = SummaryPubSub(
        paper_example_tree(), small_workload.schema, tracer=tracer
    )
    subscription = small_workload.subscription()
    system.subscribe(4, subscription)
    system.run_propagation_period()
    system.publish(11, small_workload.matching_event(subscription))
    report = build_trace_report(tracer)
    assert report.stage("publish").count == 1
    assert report.stage("propagation_period").count == 1
    assert report.publishes and report.publishes[0].deliveries >= 1
