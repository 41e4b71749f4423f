"""Chaos on the live cluster: kills, rejoins, flaps, and the delivery gate.

Three layers of coverage:

* hand-rolled fault timelines against :class:`LocalCluster` /
  :class:`ChaosController` — the crash-recovery regressions (peer-address
  refresh, epoch reuse, post-kill fallback resync) each get a focused
  test that fails on the exact pre-fix behaviour;
* the declarative scenario path — ``run_scenario_live`` on the named
  ``failover`` scenario (the acceptance drill: two abrupt kill / warm
  restart cycles of the middle line broker) plus tree and backbone
  variants, all gated on the churn-aware oracle at ratio ≥ 0.99 with
  zero duplicate consumer deliveries and exact quiesce arithmetic;
* sim-vs-live parity — one chaos-free config run on both substrates must
  achieve the *identical* delivery set.
"""

import asyncio
import os

import pytest
from hypothesis import HealthCheck, example, given, settings

from repro.model import parse_subscription, stock_schema
from repro.network import Topology
from repro.runtime.chaos import ChaosController, run_scenario_live
from repro.runtime.cluster import LocalCluster
from repro.workload.scenarios import (
    ChaosEvent,
    chaos_schedules,
    run_scenario_sim,
    scenario_config,
)
from repro.workload.stocks import StockWorkload

SCHEMA = stock_schema()

MATCH_ALL = "price > 0"  # every StockWorkload tick has a positive price


def assert_chaos_gate(outcome, ratio: float = 0.99) -> None:
    """The ISSUE acceptance gate, shared by every scenario-level test."""
    assert outcome.delivery_ratio >= ratio, (
        f"{outcome.scenario}/{outcome.substrate}: ratio "
        f"{outcome.delivery_ratio:.4f} < {ratio} "
        f"(missing {len(outcome.missing)} of {len(outcome.expected)})"
    )
    assert outcome.duplicates == 0
    assert not outcome.extras, f"spurious deliveries: {sorted(outcome.extras)[:5]}"
    if outcome.frames_balance is not None:
        enqueued, processed = outcome.frames_balance
        assert enqueued == processed, (
            f"quiesce arithmetic broken: {enqueued} enqueued-net "
            f"vs {processed} processed"
        )


class TestFailoverScenario:
    def test_failover_meets_delivery_gate(self):
        """The acceptance drill: two abrupt kill / warm-restart cycles on
        the middle broker of line5 hold ratio ≥ 0.99 against the
        churn-aware oracle, with zero duplicates and balanced frames."""
        outcome = run_scenario_live(scenario_config("failover"))
        assert_chaos_gate(outcome)
        # Both kill cycles actually happened and both recoveries leaned on
        # the delta-chain fallback (satellite: the full-summary fallback
        # must fire on the live path after an abrupt kill).
        assert outcome.metrics["fallback_requests"] > 0
        assert outcome.metrics["fallback_replies"] > 0

    def test_kill_restart_cycles_on_tree(self):
        """Same drill on the paper's 13-broker tree: kill an interior
        broker twice, warm-restart each time."""
        config = scenario_config("failover").with_overrides(
            topology="tree13",
            target_qps=18.0,
            chaos=(
                ChaosEvent(step=1, action="kill", broker=1, snapshot=True),
                ChaosEvent(step=2, action="restart", broker=1, restore=True),
                ChaosEvent(step=3, action="kill", broker=1, snapshot=True),
                ChaosEvent(step=4, action="restart", broker=1, restore=True),
            ),
        )
        assert_chaos_gate(run_scenario_live(config))

    def test_cold_rejoin_cycle_on_line(self):
        """A cold rejoin (no snapshot) permanently loses the dead broker's
        subscriptions; the oracle knows, and the gate still holds."""
        config = scenario_config("failover").with_overrides(
            chaos=(
                ChaosEvent(step=1, action="kill", broker=2),
                ChaosEvent(step=3, action="restart", broker=2),
            ),
        )
        outcome = run_scenario_live(config)
        assert_chaos_gate(outcome)

    def test_link_flaps_do_not_lose_deliveries(self):
        """Severing live TCP lanes mid-scenario is absorbed by redial and
        reroute: the no-kill oracle gate holds."""
        config = scenario_config("failover").with_overrides(
            chaos=(
                ChaosEvent(step=1, action="flap", broker=1, peer=2),
                ChaosEvent(step=3, action="flap", broker=2, peer=3),
            ),
        )
        assert_chaos_gate(run_scenario_live(config))

    @pytest.mark.slow
    def test_kill_restart_cycles_on_cable_wireless_backbone(self):
        config = scenario_config("failover").with_overrides(
            topology="cw24",
            target_qps=12.0,
            chaos=(
                ChaosEvent(step=1, action="kill", broker=3, snapshot=True),
                ChaosEvent(step=2, action="restart", broker=3, restore=True),
                ChaosEvent(step=3, action="kill", broker=3, snapshot=True),
                ChaosEvent(step=4, action="restart", broker=3, restore=True),
            ),
        )
        assert_chaos_gate(run_scenario_live(config))


# -- randomized chaos schedules --------------------------------------------------

#: The differential CI job widens the randomized search with
#: ``CHAOS_DIFF_EXAMPLES=N``; the tier-1 default stays small and fast.
_DIFF_EXAMPLES = int(os.environ.get("CHAOS_DIFF_EXAMPLES", "0"))
_SIM_EXAMPLES = _DIFF_EXAMPLES or 20
_LIVE_EXAMPLES = max(2, _DIFF_EXAMPLES // 5) if _DIFF_EXAMPLES else 3

# Shrunk schedules pinned as named regressions: each is the minimal
# chaos_schedules() draw exercising one crash-recovery bug class that a
# hand-rolled test above caught in the past.  Keeping them as @example
# pins means the randomized suite replays them on every run, not only
# when Hypothesis happens to rediscover them.

#: Warm restart on a new port — the stale ``PeerLink`` address class.
STALE_ADDRESS_WARM_RESTART = (
    ChaosEvent(step=1, action="kill", broker=2, snapshot=True),
    ChaosEvent(step=2, action="restart", broker=2, restore=True),
)
#: Cold rejoin resets the publish sequence — the epoch-reuse dedup class.
COLD_REJOIN_EPOCH = (
    ChaosEvent(step=1, action="kill", broker=2),
    ChaosEvent(step=3, action="restart", broker=2),
)
#: Interest born inside the dead window — the stale-snapshot fallback
#: (full-summary resync) class.
DEAD_WINDOW_FALLBACK = (
    ChaosEvent(step=1, action="kill", broker=2, snapshot=True),
    ChaosEvent(step=3, action="restart", broker=2, restore=True),
)
#: Cold rejoin of a broker next to the hub — the fallback-overreach class:
#: the hub's resync reply used to hand the rejoined broker the hub's whole
#: knowledge, so it claimed brokers whose later subscriptions never travel
#: that link and BROCLI skipped them (3 of 67 deliveries lost).
COLD_REJOIN_FALLBACK_OVERREACH = (
    ChaosEvent(step=1, action="kill", broker=1),
    ChaosEvent(step=2, action="restart", broker=1),
)
#: Back-to-back link flaps across both halves of the line.
FLAP_SEQUENCE = (
    ChaosEvent(step=1, action="flap", broker=1, peer=2),
    ChaosEvent(step=2, action="flap", broker=2, peer=3),
    ChaosEvent(step=4, action="flap", broker=1, peer=2),
)
#: Two overlapping dead windows, one never restarted.  Sim-only: this
#: partitions the line three ways, and interest installed on the far side
#: of a partition cannot propagate until it heals — the live gate's
#: oracle deliberately does not model that, which is exactly why
#: ``chaos_schedules`` restricts its draws to disjoint, closed windows.
OVERLAPPING_DOUBLE_FAULT = (
    ChaosEvent(step=1, action="kill", broker=1, snapshot=True),
    ChaosEvent(step=2, action="kill", broker=3),
    ChaosEvent(step=4, action="restart", broker=1, restore=True),
)

_PINNED = (
    STALE_ADDRESS_WARM_RESTART,
    COLD_REJOIN_EPOCH,
    COLD_REJOIN_FALLBACK_OVERREACH,
    DEAD_WINDOW_FALLBACK,
    FLAP_SEQUENCE,
    OVERLAPPING_DOUBLE_FAULT,
)


class TestRandomizedChaos:
    """Property layer over the scenario machinery: *any* valid schedule
    drawn from :func:`chaos_schedules` must (a) run through the simulator
    exactly — the sim has no processes to kill, so the compiled script is
    gated at ratio 1.0 against the no-fault oracle — and (b) hold the
    live churn gate (ratio ≥ 0.99 vs the churn-aware oracle, zero
    duplicates, balanced quiesce frames)."""

    @staticmethod
    def _config(schedule, **overrides):
        return scenario_config("failover").with_overrides(
            chaos=schedule, **overrides
        )

    @given(schedule=chaos_schedules())
    @example(schedule=STALE_ADDRESS_WARM_RESTART)
    @example(schedule=COLD_REJOIN_EPOCH)
    @example(schedule=DEAD_WINDOW_FALLBACK)
    @example(schedule=FLAP_SEQUENCE)
    @example(schedule=OVERLAPPING_DOUBLE_FAULT)
    @settings(
        max_examples=_SIM_EXAMPLES, deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    )
    def test_sim_executes_any_valid_schedule_exactly(self, schedule):
        outcome = run_scenario_sim(self._config(schedule))
        assert outcome.delivery_ratio == 1.0, (
            f"sim missed {len(outcome.missing)} deliveries under {schedule!r}"
        )
        assert outcome.duplicates == 0
        assert not outcome.extras

    @given(schedule=chaos_schedules())
    @example(schedule=STALE_ADDRESS_WARM_RESTART)
    @example(schedule=COLD_REJOIN_EPOCH)
    @example(schedule=COLD_REJOIN_FALLBACK_OVERREACH)
    @example(schedule=FLAP_SEQUENCE)
    @settings(
        max_examples=_LIVE_EXAMPLES, deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    )
    def test_live_churn_gate_holds_for_any_valid_schedule(self, schedule):
        outcome = run_scenario_live(self._config(schedule, target_qps=15.0))
        assert_chaos_gate(outcome)


class TestSimLiveParity:
    def test_same_config_same_delivery_set(self):
        """One chaos-free config, both substrates, identical achieved
        sets — the parity contract of the scenario compiler."""
        config = scenario_config("churn_storm", steps=3, target_qps=12.0)
        sim = run_scenario_sim(config)
        live = run_scenario_live(config)
        assert sim.achieved == live.achieved
        assert sim.duplicates == 0 and live.duplicates == 0
        assert sim.delivery_ratio == 1.0
        assert not sim.extras and not live.extras


class TestPeerLinkAddressRefresh:
    def test_restarted_broker_is_reachable_on_its_new_port(self, tmp_path):
        """Regression: a restarted broker binds a *new* ephemeral port;
        surviving peers' lazy ``PeerLink`` writers used to keep dialling
        the dead address forever.  ``set_peers`` must re-point existing
        links and cross-broker delivery must resume in both directions."""
        workload = StockWorkload(seed=11)

        async def body():
            cluster = LocalCluster(Topology.line(5), SCHEMA)
            controller = ChaosController(cluster, tmp_path)
            await cluster.start()
            try:
                tail = await cluster.subscriber(4)
                sid = await tail.subscribe(parse_subscription(SCHEMA, MATCH_ALL))
                await cluster.run_propagation_period()

                # Warm up links through the middle broker so stale
                # connections exist to be refreshed, then crash it.
                await (await cluster.producer(0)).publish(workload.tick())
                await cluster.settle()
                before = len(tail.deliveries)
                old_address = cluster.addresses[2]
                await controller.kill(2)
                await controller.restart(2)

                assert cluster.addresses[2] != old_address
                for peer_id in (1, 3):
                    link = cluster.runtimes[peer_id]._links.get(2)
                    if link is not None:
                        assert link.address == tuple(cluster.addresses[2])

                await cluster.run_propagation_period()
                # Through the restarted broker (line topology: every
                # 0 → 4 path crosses broker 2) ...
                await (await cluster.producer(0)).publish(workload.tick())
                # ... and *from* it: the cold incarnation has no local
                # interest, so this exercises its outbound event search.
                await (await cluster.producer(2)).publish(workload.tick())
                await cluster.settle()
                return sid, before, list(tail.deliveries)
            finally:
                await cluster.stop(drain=False)

        sid, before, deliveries = asyncio.run(body())
        after = [entry for entry in deliveries[before:] if entry[0] == sid]
        assert len(after) == 2, (
            f"expected both post-restart publishes at the tail subscriber, "
            f"got {len(after)}"
        )


class TestEpochNamespacing:
    def test_cold_rejoin_allocates_a_fresh_epoch(self, tmp_path):
        """A cold restart resets the publish sequence to 0; only a fresh
        epoch keeps the re-minted ids out of the id space surviving dedup
        tables have already seen."""

        async def body():
            cluster = LocalCluster(Topology.line(3), SCHEMA)
            controller = ChaosController(cluster, tmp_path)
            await cluster.start()
            try:
                tail = await cluster.subscriber(2)
                await tail.subscribe(parse_subscription(SCHEMA, MATCH_ALL))
                await cluster.run_propagation_period()
                workload = StockWorkload(seed=5)
                await (await cluster.producer(0)).publish(workload.tick())
                await cluster.settle()
                old_epoch = cluster.runtimes[0].router.epoch
                await controller.kill(0)
                await controller.restart(0)
                new_epoch = cluster.runtimes[0].router.epoch
                await (await cluster.producer(0)).publish(workload.tick())
                await cluster.settle()
                return old_epoch, new_epoch, len(tail.deliveries)
            finally:
                await cluster.stop(drain=False)

        old_epoch, new_epoch, delivered = asyncio.run(body())
        assert new_epoch != old_epoch
        assert delivered == 2  # the post-rejoin publish got through

    def test_reusing_the_prior_epoch_collides_in_dedup(self, tmp_path):
        """The counter-factual that motivates the allocator: force the old
        epoch onto the cold incarnation and its first publish re-mints an
        id the subscriber-side dedup has already recorded — the fresh
        event is silently swallowed."""

        async def body():
            cluster = LocalCluster(Topology.line(3), SCHEMA)
            controller = ChaosController(cluster, tmp_path)
            await cluster.start()
            try:
                tail = await cluster.subscriber(2)
                await tail.subscribe(parse_subscription(SCHEMA, MATCH_ALL))
                await cluster.run_propagation_period()
                workload = StockWorkload(seed=5)
                await (await cluster.producer(0)).publish(workload.tick())
                await cluster.settle()
                old_epoch = cluster.runtimes[0].router.epoch
                await controller.kill(0)
                await controller.restart(0, epoch=old_epoch)
                await (await cluster.producer(0)).publish(workload.tick())
                await cluster.settle()
                return len(tail.deliveries)
            finally:
                await cluster.stop(drain=False)

        assert asyncio.run(body()) == 1  # second publish aliased the first


class TestFallbackResyncAfterKill:
    def test_warm_rejoin_resyncs_through_delta_chain_fallback(self, tmp_path):
        """Interest installed while a broker was dead must reach it after
        the warm restart.  The restored snapshot's remote knowledge is
        stale and its delta chains are gone, so the first post-rejoin
        period must fall back to full-summary resync — and events routed
        across the rejoined broker must then find the new owner."""
        workload = StockWorkload(seed=23)

        async def body():
            cluster = LocalCluster(Topology.line(5), SCHEMA)
            controller = ChaosController(cluster, tmp_path)
            await cluster.start()
            try:
                for broker_id in (0, 1, 3):
                    session = await cluster.subscriber(broker_id)
                    await session.subscribe(workload.subscription())
                await cluster.run_propagation_period()

                await controller.kill(2, snapshot=True)
                # Interest born during the dead window, far side of the line.
                tail = await cluster.subscriber(4)
                sid = await tail.subscribe(parse_subscription(SCHEMA, MATCH_ALL))
                await cluster.run_propagation_period()

                await controller.restart(2, restore=True)
                await cluster.run_propagation_period()
                await cluster.run_propagation_period()

                runtimes = list(cluster.runtimes.values())
                requests = sum(r.broker.fallback_requests for r in runtimes)
                replies = sum(r.broker.fallback_replies for r in runtimes)

                await (await cluster.producer(0)).publish(workload.tick())
                await cluster.settle()
                delivered = [entry for entry in tail.deliveries if entry[0] == sid]
                return requests, replies, delivered
            finally:
                await cluster.stop(drain=False)

        requests, replies, delivered = asyncio.run(body())
        assert requests > 0, "rejoin did not trigger the full-summary fallback"
        assert replies > 0
        assert len(delivered) == 1, "dead-window subscription lost after rejoin"

    def test_cold_rejoin_resync_reply_claims_only_what_the_link_carries(
        self, tmp_path
    ):
        """Regression: on line5 the hub (broker 2) ships its periodic delta
        to broker 1 before broker 3's arrives, so the 2 → 1 link carries
        broker 2's own interest only.  A resync reply that handed a cold-
        rejoined broker 1 the hub's whole knowledge made it claim brokers
        3 and 4 in Merged_Brokers; their later subscriptions never reached
        it, and publishes entering at broker 0 stopped at broker 1's
        BROCLI without ever reaching the hub."""
        workload = StockWorkload(seed=29)

        async def body():
            cluster = LocalCluster(Topology.line(5), SCHEMA)
            controller = ChaosController(cluster, tmp_path)
            await cluster.start()
            try:
                for broker_id in (1, 2, 3):
                    session = await cluster.subscriber(broker_id)
                    await session.subscribe(workload.subscription())
                await cluster.run_propagation_period()

                await controller.kill(1)
                await cluster.run_propagation_period()
                await controller.restart(1)
                await cluster.run_propagation_period()
                rejoined = cluster.runtimes[1]
                replies = sum(r.broker.fallback_replies for r in cluster.runtimes.values())
                merged = set(rejoined.broker.merged_brokers)
                own_ids = {
                    sid for sid in rejoined.broker.kept_summary.all_ids()
                    if sid.broker == 1
                }

                # Interest born after the rejoin, far side of the hub.
                tail = await cluster.subscriber(4)
                sid = await tail.subscribe(parse_subscription(SCHEMA, MATCH_ALL))
                await cluster.run_propagation_period()
                await (await cluster.producer(0)).publish(workload.tick())
                await cluster.settle()
                delivered = [entry for entry in tail.deliveries if entry[0] == sid]
                return replies, merged, own_ids, delivered
            finally:
                await cluster.stop(drain=False)

        replies, merged, own_ids, delivered = asyncio.run(body())
        assert replies > 0, "cold rejoin did not trigger the full-summary fallback"
        assert not merged & {3, 4}, f"rejoined broker claims {sorted(merged)}"
        assert not own_ids, f"dead incarnation's ids handed back: {sorted(own_ids)}"
        assert len(delivered) == 1, "post-rejoin subscription at broker 4 missed"


class TestMidTrafficKill:
    def test_kill_without_quiesce_neither_hangs_nor_duplicates(self, tmp_path):
        """Crash the middle broker while publishes are in flight — no
        prior quiesce.  Frames may die with the broker (delivery loss is
        acceptable here); hangs and duplicate consumer deliveries are
        not, and quiesce must still converge afterwards via the rebase."""
        workload = StockWorkload(seed=41)

        async def body():
            cluster = LocalCluster(Topology.line(5), SCHEMA)
            controller = ChaosController(cluster, tmp_path)
            await cluster.start()
            try:
                sessions = []
                for broker_id in sorted(cluster.runtimes):
                    session = await cluster.subscriber(broker_id)
                    await session.subscribe(parse_subscription(SCHEMA, MATCH_ALL))
                    sessions.append(session)
                await cluster.run_propagation_period()

                producer = await cluster.producer(0)
                for _ in range(10):
                    await producer.publish(workload.tick())
                await controller.kill(2)  # mid-flight, deliberately no quiesce
                await controller.restart(2)
                for _ in range(10):
                    await producer.publish(workload.tick())
                await cluster.settle()  # quiesce rebases after the chaos

                duplicates = 0
                for session in cluster._subscribers:
                    seen = set()
                    for key in session.deliveries:
                        if key in seen:
                            duplicates += 1
                        seen.add(key)
                return duplicates
            finally:
                await cluster.stop(drain=False)

        assert asyncio.run(body()) == 0
