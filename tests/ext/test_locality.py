"""Locality-aware routing on federated overlays."""

import random

import pytest

from repro.broker.system import SummaryPubSub
from repro.experiments.federation import split_traffic
from repro.ext.locality import enable_locality
from repro.network.federation import three_isp_federation
from repro.workload.popularity import (
    draw_matched_sets,
    popularity_event,
    popularity_schema,
    probe_subscription,
)


def build(local: bool, sizes=(8, 10, 6), seed=3):
    topology, federation = three_isp_federation(sizes, seed=seed)
    system = SummaryPubSub(topology, popularity_schema())
    for broker_id in topology.brokers:
        system.subscribe(broker_id, probe_subscription(broker_id))
    system.run_propagation_period()
    if local:
        enable_locality(system, federation)
    return system, federation


def publish_burst(system, n_events=40, popularity=0.25, seed=5):
    n = system.topology.num_brokers
    rng = random.Random(seed)
    for matched in draw_matched_sets(n, popularity, n_events, seed=seed):
        outcome = system.publish(rng.randrange(n), popularity_event(matched))
        assert outcome.matched_brokers == matched  # correctness preserved
    return system


class TestCorrectness:
    def test_deliveries_unchanged(self):
        system, _federation = build(local=True)
        publish_burst(system)

    def test_termination(self):
        system, _federation = build(local=True)
        for matched in draw_matched_sets(24, 0.9, 10, seed=1):
            system.publish(0, popularity_event(matched))  # must not loop


class TestLocalityBenefit:
    def test_inter_isp_event_bytes_reduced(self):
        plain, federation = build(local=False)
        publish_burst(plain, seed=9)
        local, federation2 = build(local=True)
        publish_burst(local, seed=9)

        _pi, plain_inter = split_traffic(plain.event_metrics, federation)
        _li, local_inter = split_traffic(local.event_metrics, federation2)
        assert local_inter < plain_inter

    def test_local_isp_exhausted_before_jumping(self):
        system, federation = build(local=True)
        visits = []
        original = system.router._next_router

        def spy(brocli, origin, event):
            choice = original(brocli, origin, event)
            visits.append((origin, choice))
            return choice

        system.router._next_router = spy
        publisher = federation.global_id(0, 1)
        system.publish(publisher, popularity_event(set()))
        # Once the chain leaves an ISP it must not come back to it.
        isps_seen = []
        for _origin, choice in visits:
            isp = federation.isp_of(choice)
            if not isps_seen or isps_seen[-1] != isp:
                isps_seen.append(isp)
        assert len(isps_seen) == len(set(isps_seen)), f"re-entered an ISP: {isps_seen}"
