"""Per-layer metrics from the traced brokers' marks.

Each broker's trace file holds cumulative snapshots ("marks") taken at
paced start, capacity start (= paced end), capacity end and exit.  ``_us`` metrics are
span self time between the two capacity marks, summed over the brokers and
divided by the events the capacity phase routed — so they add up, with
``runtime.server.other_us``, to the traced ``cpu_us_per_event``.  The two
request-priced layers (subscribe, unsubscribe) are mean self time per
call over the whole run instead: set-up is where almost all of them
happen.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Tuple

from benchmarks.perf.workloads import BROKERS, HOME, HUB, INGRESS

__all__ = ["ROLES", "layer_metrics", "load_traces"]

ROLES = {INGRESS: "ingress", HUB: "hub", HOME: "home"}
PACED_START, CAPACITY_START, CAPACITY_END, EXIT = range(4)
#: fields of one span aggregate
CALLS, SELF_NS = 0, 1

#: span name -> the per-layer metric its self time feeds
_SPAN_METRICS = {
    "runtime.framing.feed": "runtime.framing.feed_us",
    "runtime.framing.recv": "runtime.framing.recv_us",
    "runtime.framing.send": "runtime.framing.send_us",
    "wire.decode": "wire.decode_us",
    "wire.encode": "wire.encode_us",
    "wire.size": "wire.size_us",
    "model.validate": "model.validate_us",
    "summary.match": "summary.match_us",
    "summary.compile": "summary.compile_us",
    "broker.routing.route": "broker.routing.route_us",
    "broker.deliver": "broker.deliver_us",
    "broker.recheck": "broker.recheck_us",
    "broker.propagation.period": "broker.propagation.period_us",
    "broker.propagation.absorb": "broker.propagation.absorb_us",
    "runtime.server.pump": "runtime.server.pump_us",
}
#: spans that are in the coverage sum but reported per call, not per event
_REQUEST_SPANS = {
    "broker.subscribe": "broker.subscribe_us",
    "broker.unsubscribe": "broker.unsubscribe_us",
}


def load_traces(paths: Dict[int, Path]) -> Dict[int, dict]:
    traces = {}
    for broker, path in paths.items():
        trace = json.loads(path.read_text())
        if len(trace["marks"]) != EXIT + 1:
            raise ValueError(
                f"{path}: {len(trace['marks'])} marks, expected {EXIT + 1} "
                f"(a SIGUSR1 was lost or the broker restarted)"
            )
        traces[broker] = trace
    return traces


def _read(trace: dict, mark: int, section: str, name: str, field=None):
    value = trace["marks"][mark][section].get(name)
    if value is None:
        return 0
    return value if field is None else value[field]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    traces: Dict[int, dict], events: int
) -> Tuple[Dict[str, float], Dict[str, Dict[str, float]]]:
    """``(metrics, by_role)``: the summed per-layer metrics and the same
    ``_us`` values broken down per broker role."""

    def delta(broker, section, name, field=None, start=CAPACITY_START):
        trace = traces[broker]
        return (_read(trace, CAPACITY_END, section, name, field)
                - _read(trace, start, section, name, field))

    def total(section, name, field=None, start=CAPACITY_START):
        return sum(delta(b, section, name, field, start) for b in BROKERS)

    def at_exit(section, name, field=None):
        return sum(_read(traces[b], EXIT, section, name, field) for b in BROKERS)

    metrics: Dict[str, float] = {}
    by_role: Dict[str, Dict[str, float]] = {role: {} for role in ROLES.values()}
    covered_us = {broker: 0.0 for broker in BROKERS}
    for span, metric in _SPAN_METRICS.items():
        metrics[metric] = 0.0
        for broker in BROKERS:
            self_us = delta(broker, "spans", span, SELF_NS) / 1e3
            covered_us[broker] += self_us
            by_role[ROLES[broker]][metric] = self_us / events
            metrics[metric] += self_us / events
    for span, metric in _REQUEST_SPANS.items():
        for broker in BROKERS:
            covered_us[broker] += delta(broker, "spans", span, SELF_NS) / 1e3
        metrics[metric] = _ratio(
            at_exit("spans", span, SELF_NS) / 1e3, at_exit("spans", span, CALLS)
        )

    cpu_us = {
        broker: (
            traces[broker]["marks"][CAPACITY_END]["cpu_s"]
            - traces[broker]["marks"][CAPACITY_START]["cpu_s"]
        ) * 1e6
        for broker in BROKERS
    }
    for broker in BROKERS:
        role = by_role[ROLES[broker]]
        role["cpu_us_per_event"] = cpu_us[broker] / events
        role["runtime.server.other_us"] = (cpu_us[broker] - covered_us[broker]) / events
        role["trace.coverage_share"] = _ratio(covered_us[broker], cpu_us[broker])
    all_cpu_us, all_covered_us = sum(cpu_us.values()), sum(covered_us.values())
    metrics["traced_cpu_us_per_event"] = all_cpu_us / events
    metrics["runtime.server.other_us"] = (all_cpu_us - all_covered_us) / events
    metrics["trace.coverage_share"] = _ratio(all_covered_us, all_cpu_us)
    metrics["summary.match_hub_share"] = _ratio(
        by_role["hub"]["summary.match_us"], by_role["hub"]["cpu_us_per_event"]
    )

    metrics["runtime.framing.frames_per_feed"] = _ratio(
        total("counters", "framing.frames"), total("counters", "framing.feeds")
    )
    metrics["wire.encode_calls_per_event"] = total("counters", "wire.encode_calls") / events
    hits = total("runtime", "runtime.match_cache_hits")
    misses = total("runtime", "runtime.match_cache_misses")
    metrics["summary.match_cache_hit_share"] = _ratio(hits, hits + misses)
    metrics["summary.compiles"] = total("spans", "summary.compile", CALLS)
    metrics["broker.routing.forwards_per_event"] = (
        total("counters", "routing.forwards") / events
    )
    metrics["broker.routing.notify_frames_per_event"] = (
        total("counters", "routing.notify_frames") / events
    )
    metrics["broker.deliver_useful_share"] = _ratio(
        total("counters", "recheck.confirmed"), total("counters", "recheck.candidates")
    )
    metrics["broker.propagation.delta_bytes_per_period"] = _ratio(
        total("counters", "propagation.bytes", start=PACED_START),
        total("counters", "propagation.frames", start=PACED_START),
    )
    metrics["runtime.server.events_per_batch"] = _ratio(
        total("counters", "server.batched_events"), total("counters", "server.batches")
    )
    metrics["runtime.server.backpressure_stalls"] = at_exit(
        "runtime", "runtime.network.backpressure_stalls"
    )
    metrics["runtime.server.frames_dropped"] = at_exit("runtime", "runtime.frames_dropped")
    metrics["network.bytes_per_event"] = (
        total("runtime", "runtime.network.bytes_sent") / events
    )
    return metrics, by_role
