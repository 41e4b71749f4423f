"""Differential harness: ``publish_batch`` ≡ sequential ``publish``.

The live runtime's batched hot path funnels every inbound EVENT burst
through :meth:`EventRouter.process_batch`, which batches only step 1 of
Algorithm 3 (the ingress summary check, via ``match_kept_many``) and runs
steps 2–4 per event.  The contract — relied on by the dispatch loop and
stated in ``process_batch``'s docstring — is that this is *semantically
invisible*: for any topology, subscription population and interleaving of
EVENT bursts across ingress brokers, the per-consumer delivery sets are
identical to publishing the same events one at a time.

Hypothesis drives the interleavings: random topologies, a random
subscription population (brokers may subscribe to several probes or to
none), and a random schedule of bursts — including empty bursts, bursts
of one, duplicate events inside a burst, and the same event re-published
from different brokers.  Three systems consume the identical schedule:

* sequential + compiled matcher (the pre-batching live configuration),
* batched + compiled matcher (the live runtime's actual hot path),
* sequential + the reference Algorithm-1 walk (the oracle: its brokers'
  summary check is pointed at ``kept_summary.match``).

All three must produce the same delivery multiset, burst by burst, and
the batched system must also agree on hop counts — batching must not
change any routing decision, only amortize the match.  Hypothesis also
draws the router: the plain one, or the virtual-degree one
(:func:`repro.ext.virtual_degrees.enable_virtual_degrees`), whose
forwarding target depends on the event being routed; the first burst of
every scenario runs on a router that has not routed anything yet.

Budget is configurable for CI's high-budget differential job::

    BATCH_DIFF_EXAMPLES=200 pytest tests/broker/test_batch_differential.py
"""

import os
from collections import Counter

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.broker.system import SummaryPubSub
from repro.ext.virtual_degrees import enable_virtual_degrees
from repro.network import Topology
from repro.workload.popularity import (
    popularity_event,
    popularity_schema,
    probe_subscription,
)

EXAMPLES = int(os.environ.get("BATCH_DIFF_EXAMPLES", "60"))

DIFF_SETTINGS = settings(
    max_examples=EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

TOPOLOGY_BUILDERS = {
    "line4": lambda: Topology.line(4),
    "star5": lambda: Topology.star(5),
    "tree6": lambda: Topology.random_tree(6, seed=3),
    "mesh7": lambda: Topology.random_connected(7, extra_links=3, seed=9),
}


@st.composite
def schedules(draw):
    """A (topology, router, subscriptions, bursts) differential scenario.

    ``subscriptions`` is a list of ``(home broker, probe target)`` pairs —
    the home broker subscribes to the probe of ``probe target``, so one
    event can match several sids on several brokers (or none).
    ``bursts`` is the interleaving: ``(ingress broker, [matched sets])``.
    """
    name = draw(st.sampled_from(sorted(TOPOLOGY_BUILDERS)))
    router = draw(st.sampled_from(["plain", "virtual"]))
    topology = TOPOLOGY_BUILDERS[name]()
    brokers = sorted(topology.brokers)
    broker = st.sampled_from(brokers)
    subscriptions = draw(
        st.lists(st.tuples(broker, broker), min_size=1, max_size=12)
    )
    matched_set = st.sets(broker, max_size=len(brokers))
    bursts = draw(
        st.lists(
            st.tuples(broker, st.lists(matched_set, max_size=6)),
            min_size=1,
            max_size=6,
        )
    )
    return name, router, subscriptions, bursts


def build_system(topology, subscriptions, reference=False, router="plain"):
    system = SummaryPubSub(topology, popularity_schema())
    if router == "virtual":
        enable_virtual_degrees(system)
    if reference:
        for broker in system.brokers.values():
            broker.match_kept_many = lambda events, b=broker: [
                b.kept_summary.match(event) for event in events
            ]
    sids = []
    for home, target in subscriptions:
        sids.append(system.subscribe(home, probe_subscription(target)))
    system.run_propagation_period()
    return system, sids


def delivery_multiset(result):
    """Order-free fingerprint of who got what, how many times."""
    return Counter(
        (delivery.broker, delivery.sid, delivery.event)
        for delivery in result.deliveries
    )


@DIFF_SETTINGS
@given(schedules())
def test_batched_equals_sequential_for_any_interleaving(scenario):
    name, router, subscriptions, bursts = scenario
    topology = TOPOLOGY_BUILDERS[name]()
    batched, _ = build_system(topology, subscriptions, router=router)
    sequential, _ = build_system(topology, subscriptions, router=router)
    oracle, _ = build_system(
        topology, subscriptions, reference=True, router=router
    )

    for ingress, matched_sets in bursts:
        events = [popularity_event(matched) for matched in matched_sets]
        batch_result = batched.publish_batch(ingress, events)

        sequential_deliveries = Counter()
        sequential_hops = 0
        oracle_deliveries = Counter()
        for event in events:
            result = sequential.publish(ingress, event)
            sequential_deliveries += delivery_multiset(result)
            sequential_hops += result.hops
            oracle_deliveries += delivery_multiset(oracle.publish(ingress, event))

        batch_deliveries = delivery_multiset(batch_result)
        assert batch_deliveries == sequential_deliveries, (
            f"burst at broker {ingress} diverged from sequential publish"
        )
        assert batch_deliveries == oracle_deliveries, (
            f"burst at broker {ingress} diverged from the reference oracle"
        )
        assert batch_result.hops == sequential_hops, (
            f"batching changed routing cost at broker {ingress}: "
            f"{batch_result.hops} hops batched vs {sequential_hops} sequential"
        )


@DIFF_SETTINGS
@given(schedules())
def test_duplicated_burst_is_fully_redelivered(scenario):
    """Publishing a burst twice delivers twice: fresh publish ids mean the
    dedup LRU must never confuse re-publishes with retransmits."""
    name, router, subscriptions, bursts = scenario
    topology = TOPOLOGY_BUILDERS[name]()
    system, _ = build_system(topology, subscriptions, router=router)

    ingress, matched_sets = bursts[0]
    events = [popularity_event(matched) for matched in matched_sets]
    first = delivery_multiset(system.publish_batch(ingress, events))
    second = delivery_multiset(system.publish_batch(ingress, events))
    assert first == second


def test_empty_burst_is_a_no_op():
    topology = Topology.line(4)
    system, _ = build_system(topology, [(0, 1), (3, 1)])
    result = system.publish_batch(2, [])
    assert result.deliveries == []
    assert result.hops == 0


def test_burst_with_duplicate_events_delivers_each():
    """The same event twice in one burst is two publishes, not one."""
    topology = Topology.line(4)
    system, sids = build_system(topology, [(3, 3)])
    event = popularity_event({3})
    result = system.publish_batch(0, [event, event, event])
    assert delivery_multiset(result) == Counter({(3, sids[0], event): 3})
