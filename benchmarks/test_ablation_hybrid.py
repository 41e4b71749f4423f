"""Ablation — hybrid summarization + subsumption (section-6 extension).

Measures what the covering prefilter buys on a nested-interest workload:
propagation bytes, storage, and suppressed-id counts, with delivery
equality asserted throughout.
"""

import pytest

from repro.broker.system import SummaryPubSub
from repro.model import parse_subscription, stock_schema


def _covering_workload(schema, broker_id, depth=8):
    """One broad watcher plus ``depth`` nested narrow interests."""
    subs = [parse_subscription(schema, f"price < {200 + broker_id}")]
    subs += [
        parse_subscription(schema, f"price < {10 + i} AND symbol = SYM{broker_id}")
        for i in range(depth)
    ]
    return subs


def _load(topology, system_cls, **kwargs):
    schema = stock_schema()
    system = system_cls(topology, schema, **kwargs)
    for broker_id in topology.brokers:
        for subscription in _covering_workload(schema, broker_id):
            system.subscribe(broker_id, subscription)
    return system


# Suppression is on by default, so the "plain" arm of the ablation must
# opt out explicitly.
MODES = [
    ("plain", SummaryPubSub, {"suppress_covered": False}),
    ("hybrid", SummaryPubSub, {}),
]


@pytest.mark.parametrize(
    "system_cls,kwargs", [m[1:] for m in MODES], ids=[m[0] for m in MODES]
)
def test_propagation_under_mode(benchmark, topology, system_cls, kwargs):
    """Time: one propagation period of the nested workload."""

    def setup():
        return (_load(topology, system_cls, **kwargs),), {}

    def run(system):
        system.run_propagation_period()
        return system

    system = benchmark.pedantic(run, setup=setup, rounds=3)
    benchmark.extra_info["mode"] = system_cls.__name__
    benchmark.extra_info["propagation_bytes"] = system.propagation_metrics.bytes_sent
    benchmark.extra_info["storage_bytes"] = system.total_summary_storage()
    benchmark.extra_info["suppressed_subscriptions"] = system.total_suppressed()


def test_hybrid_savings_summary(benchmark, topology):
    """One measurement pairing both modes for a direct ratio."""

    def measure():
        plain = _load(topology, SummaryPubSub, suppress_covered=False)
        plain.run_propagation_period()
        hybrid = _load(topology, SummaryPubSub)  # suppression is the default
        hybrid.run_propagation_period()
        return (
            plain.propagation_metrics.bytes_sent,
            hybrid.propagation_metrics.bytes_sent,
        )

    plain_bytes, hybrid_bytes = benchmark.pedantic(measure, rounds=2)
    benchmark.extra_info["plain_bytes"] = plain_bytes
    benchmark.extra_info["hybrid_bytes"] = hybrid_bytes
    benchmark.extra_info["savings_ratio"] = round(plain_bytes / hybrid_bytes, 2)
    assert hybrid_bytes < plain_bytes
