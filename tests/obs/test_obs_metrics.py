"""Unit tests for the metrics registry (repro.obs.metrics)."""

from __future__ import annotations

import pytest

from repro.broker.system import SummaryPubSub
from repro.network.topology import paper_example_tree
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    collect_system_metrics,
)
from repro.obs.tracing import Tracer


# -- instruments -------------------------------------------------------------


def test_counter_is_monotone():
    counter = Counter("x")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_gauge_moves_both_ways():
    gauge = Gauge("x")
    gauge.set(10)
    gauge.add(-3)
    assert gauge.value == 7


def test_histogram_aggregates():
    histogram = Histogram("x")
    for value in (1.0, 2.0, 3.0, 4.0):
        histogram.observe(value)
    assert histogram.count == 4
    assert histogram.total == pytest.approx(10.0)
    assert histogram.min == 1.0
    assert histogram.max == 4.0
    assert histogram.mean == pytest.approx(2.5)
    assert histogram.percentile(0.0) == 1.0
    assert histogram.percentile(1.0) == 4.0
    summary = histogram.summary()
    assert summary["count"] == 4
    assert summary["p95"] == 4.0


def test_histogram_empty_summary_and_bad_fraction():
    histogram = Histogram("x")
    assert histogram.summary() == {
        "count": 0, "sum": 0.0, "mean": 0.0, "min": 0.0, "max": 0.0,
        "p50": 0.0, "p95": 0.0,
    }
    assert histogram.percentile(0.5) == 0.0
    with pytest.raises(ValueError):
        histogram.percentile(1.5)


def test_histogram_sample_is_bounded_but_totals_are_not():
    histogram = Histogram("x", sample_limit=8)
    for value in range(100):
        histogram.observe(value)
    assert histogram.count == 100
    assert len(histogram._sample) == 8
    assert histogram.max == 99.0  # extrema track everything
    with pytest.raises(ValueError):
        Histogram("x", sample_limit=0)


# -- registry ----------------------------------------------------------------


def test_registry_get_or_create_returns_same_instrument():
    registry = MetricsRegistry()
    assert registry.counter("a.b") is registry.counter("a.b")
    assert len(registry) == 1
    assert "a.b" in registry
    assert registry.names() == ["a.b"]


def test_registry_rejects_kind_conflicts():
    registry = MetricsRegistry()
    registry.counter("a.b")
    with pytest.raises(TypeError, match="already registered"):
        registry.gauge("a.b")


def test_snapshot_flattens_histograms():
    registry = MetricsRegistry()
    registry.counter("c").inc(3)
    registry.gauge("g").set(1.5)
    registry.histogram("h").observe(2.0)
    snap = registry.snapshot()
    assert snap["c"] == 3
    assert snap["g"] == 1.5
    assert snap["h"]["count"] == 1
    rendered = registry.render()
    assert "c" in rendered and "n=1" in rendered


# -- system collection -------------------------------------------------------


@pytest.fixture
def driven_system(small_workload):
    system = SummaryPubSub(paper_example_tree(), small_workload.schema)
    subscriptions = small_workload.subscriptions(6)
    for index, subscription in enumerate(subscriptions):
        system.subscribe(index % 3, subscription)
    system.run_propagation_period()
    system.publish(5, small_workload.matching_event(subscriptions[0]))
    system.publish(7, small_workload.event())
    return system


def test_collect_system_metrics_unifies_the_layers(driven_system):
    registry = collect_system_metrics(driven_system)
    snap = registry.snapshot()
    assert snap["broker.count"] == len(driven_system.brokers)
    assert snap["broker.subscriptions"] == 6
    assert snap["broker.kept_ids"] >= 6  # merged everywhere after the period
    assert snap["propagation.periods_run"] == 1
    assert snap["net.propagation.bytes_sent"] > 0
    assert snap["net.event.messages"] > 0
    expected_deliveries = sum(
        b.delivered for b in driven_system.brokers.values()
    )
    assert snap["broker.deliveries"] == expected_deliveries
    # collect_metrics() on the system is the same collection.
    assert driven_system.collect_metrics().snapshot() == snap


def test_trace_histograms_appear_when_tracer_attached(small_workload):
    tracer = Tracer()
    system = SummaryPubSub(
        paper_example_tree(), small_workload.schema, tracer=tracer
    )
    subscription = small_workload.subscription()
    system.subscribe(0, subscription)
    system.run_propagation_period()
    system.publish(9, small_workload.matching_event(subscription))
    registry = collect_system_metrics(system)
    snap = registry.snapshot()
    assert snap["trace.publish.dur_us"]["count"] >= 1
    assert snap["trace.propagation_period.dur_us"]["count"] == 1
    assert any(name.startswith("trace.route_hop") for name in registry.names())


def test_untraced_system_contributes_no_trace_metrics(driven_system):
    names = collect_system_metrics(driven_system).names()
    assert not any(name.startswith("trace.") for name in names)


def test_system_report_embeds_the_snapshot(driven_system):
    from repro.analysis.report import build_report

    report = build_report(driven_system)
    assert report.metrics["broker.subscriptions"] == 6
    assert "metrics:" in str(report)
