"""Cross-system equivalence: all three systems deliver identically.

The strongest correctness statement in the repository: for shared
workloads, the summary system (both precisions), the covering Siena
comparator and the broadcast baseline all produce exactly the oracle's
delivery set — so every bandwidth/storage/hop difference measured by the
experiments is a pure efficiency difference, never a semantics difference.
"""

import random

import pytest

from repro.baseline.broadcast import BroadcastPubSub
from repro.broker.system import SummaryPubSub
from repro.network import Topology, cable_wireless_24
from repro.siena.system import SienaPubSub
from repro.summary import Precision
from repro.workload import WorkloadConfig, WorkloadGenerator

pytestmark = pytest.mark.slow


def build_all(topology, generator, sigma):
    systems = {
        "summary-coarse": SummaryPubSub(topology, generator.schema),
        "summary-exact": SummaryPubSub(
            topology, generator.schema, precision=Precision.EXACT
        ),
        "siena": SienaPubSub(topology, generator.schema),
        "broadcast": BroadcastPubSub(topology, generator.schema),
    }
    subscriptions = []
    for broker_id in topology.brokers:
        batch = generator.subscriptions(sigma)
        subscriptions.extend(batch)
        for subscription in batch:
            for system in systems.values():
                system.subscribe(broker_id, subscription)
    for system in systems.values():
        system.run_propagation_period()
    return systems, subscriptions


@pytest.mark.parametrize("subsumption", [0.1, 0.9])
def test_all_systems_deliver_identically(subsumption):
    topology = cable_wireless_24()
    generator = WorkloadGenerator(
        WorkloadConfig(sigma=6, subsumption=subsumption), seed=37
    )
    systems, subscriptions = build_all(topology, generator, sigma=6)
    rng = random.Random(8)
    events = [generator.matching_event(rng.choice(subscriptions)) for _ in range(12)]
    events += generator.events(8)
    for event in events:
        publisher = rng.randrange(topology.num_brokers)
        oracle = systems["broadcast"].ground_truth_matches(event)
        for name, system in systems.items():
            outcome = system.publish(publisher, event)
            got = {(d.broker, d.sid) for d in outcome.deliveries}
            assert got == oracle, f"{name} diverged on {event}"


def test_efficiency_ordering_holds():
    """summary < siena < broadcast in propagation bytes, on one workload."""
    topology = cable_wireless_24()
    generator = WorkloadGenerator(WorkloadConfig(sigma=10, subsumption=0.5), seed=41)
    systems, _ = build_all(topology, generator, sigma=10)
    summary_bytes = systems["summary-coarse"].propagation_metrics.bytes_sent
    siena_bytes = systems["siena"].propagation_metrics.bytes_sent
    broadcast_bytes = systems["broadcast"].propagation_metrics.bytes_sent
    assert summary_bytes < siena_bytes < broadcast_bytes


def test_small_topologies_agree():
    for topology in (Topology.line(5), Topology.star(6), Topology.random_tree(7, 2)):
        generator = WorkloadGenerator(WorkloadConfig(sigma=4, subsumption=0.5), seed=5)
        systems, subscriptions = build_all(topology, generator, sigma=4)
        rng = random.Random(1)
        for _ in range(6):
            event = generator.matching_event(rng.choice(subscriptions))
            oracle = systems["broadcast"].ground_truth_matches(event)
            for name, system in systems.items():
                outcome = system.publish(rng.randrange(topology.num_brokers), event)
                got = {(d.broker, d.sid) for d in outcome.deliveries}
                assert got == oracle, f"{name} diverged on {topology}"
