"""Chaos driving for the live cluster: kills, rejoins, flaps, scenarios.

Two layers:

:class:`ChaosController`
    imperative fault primitives against a running
    :class:`~repro.runtime.cluster.LocalCluster` — abrupt broker kill (no
    drain, sockets torn mid-frame), restart-from-snapshot or cold rejoin
    on a fresh port, and link flaps that sever both directed TCP lanes of
    one overlay edge.  Usable directly from tests that want hand-rolled
    fault timelines.

:func:`run_scenario_live`
    the live twin of :func:`repro.workload.scenarios.run_scenario_sim`:
    executes a compiled :class:`~repro.workload.scenarios.ScenarioScript`
    — including its declarative chaos schedule — against a real cluster
    and returns a :class:`~repro.workload.scenarios.ScenarioOutcome`
    gated on the churn-aware oracle (``honor_chaos=True``).

Delivery accounting across incarnations deserves a note.
:meth:`LocalCluster.handoffs` is each incarnation's consumer hand-off
ledger; when an incarnation is killed, its ledger is translated to
``(publish_serial, sub_serial)`` pairs *at kill time*, using the sid map
as of that incarnation — a later cold restart resets the broker's
local-sid allocator, so raw sids are only meaningful per incarnation.
Warm restores keep both the sids and the allocator watermark (snapshots
persist ``next_local_id``), so the map survives; cold restarts purge the
dead broker's entries before any new subscription can re-mint an old
sid.  A pair landing twice across any incarnation is a duplicate consumer
delivery — the chaos gate requires zero.
"""

from __future__ import annotations

import asyncio
import tempfile
from pathlib import Path
from typing import Dict, Optional, Set, Tuple

from repro.model.ids import SubscriptionId
from repro.runtime.client import ProducerSession, SubscriberSession
from repro.runtime.cluster import LocalCluster
from repro.workload.scenarios import (
    ChaosEvent,
    ScenarioConfig,
    ScenarioOutcome,
    build_script,
    expected_deliveries,
)

__all__ = ["ChaosController", "run_scenario_live"]


class ChaosController:
    """Fault primitives for one live cluster.

    Thin on purpose: the cluster owns the lifecycle bookkeeping (ledger
    folding, address re-publication, dirty-quiesce flagging); this class
    just sequences the fault and remembers where snapshots live.
    """

    def __init__(self, cluster: LocalCluster, snapshot_dir: Optional[Path] = None):
        self.cluster = cluster
        self.snapshot_dir = Path(snapshot_dir) if snapshot_dir else cluster.snapshot_dir
        #: killed incarnations, newest last, for post-mortem accounting.
        self.killed: Dict[int, list] = {}

    async def kill(self, broker_id: int, *, snapshot: bool = False):
        """Abrupt crash; with ``snapshot``, persist state just before it
        (modelling a periodic snapshotter that had recently run)."""
        if snapshot:
            await self.cluster.snapshot_broker(broker_id, self.snapshot_dir)
        runtime = await self.cluster.kill_broker(broker_id)
        self.killed.setdefault(broker_id, []).append(runtime)
        return runtime

    async def restart(self, broker_id: int, *, restore: bool = False,
                      epoch: Optional[int] = None):
        """Fresh incarnation on a new port; ``restore`` warm-starts it
        from this controller's snapshot directory."""
        return await self.cluster.restart_broker(
            broker_id,
            restore_from=self.snapshot_dir if restore else None,
            epoch=epoch,
        )

    async def flap_link(self, a: int, b: int) -> None:
        """Sever both directed TCP lanes of edge ``a``–``b``.

        The lazy writers redial on their next frame; a batch caught
        mid-write is dropped-and-counted and its EVENTs rerouted, exactly
        like a momentary switch reboot between two brokers.
        """
        for src, dst in ((a, b), (b, a)):
            runtime = self.cluster.runtimes.get(src)
            link = runtime._links.get(dst) if runtime is not None else None
            if link is not None and link._conn is not None:
                await link._conn.close()
                link._conn = None
        # A frame already flushed into a socket we just tore may still be
        # processed by the peer (or half of it may be) — rebase the
        # quiesce arithmetic instead of trusting strict identity.
        self.cluster._chaos_dirty = True

    async def execute(self, event: ChaosEvent) -> None:
        """Run one declarative schedule entry."""
        if event.action == "kill":
            await self.kill(event.broker, snapshot=event.snapshot)
        elif event.action == "restart":
            await self.restart(event.broker, restore=event.restore)
        elif event.action == "flap":
            await self.flap_link(event.broker, event.peer)
        else:
            raise ValueError(f"unknown chaos action {event.action!r}")


async def _drive_scenario_live(
    config: ScenarioConfig, snapshot_dir: Path
) -> ScenarioOutcome:
    script = build_script(config)
    cluster = LocalCluster(script.topology, script.schema)
    controller = ChaosController(cluster, snapshot_dir)
    event_serial = {pub.event: pub.serial for pub in script.pubs}
    sid_by_serial: Dict[int, SubscriptionId] = {}
    serial_by_sid: Dict[Tuple[int, SubscriptionId], int] = {}
    achieved: Set[Tuple[int, int]] = set()
    duplicates = 0
    producers: Dict[int, ProducerSession] = {}
    subscribers: Dict[int, SubscriberSession] = {}

    def absorb(broker_id: int, runtime) -> None:
        """Fold one incarnation's delivery ledger into the outcome."""
        nonlocal duplicates
        for sid, event in cluster.handoffs(runtime):
            key = (event_serial[event], serial_by_sid[(broker_id, sid)])
            if key in achieved:
                duplicates += 1
            else:
                achieved.add(key)

    async def get_subscriber(broker_id: int) -> SubscriberSession:
        session = subscribers.get(broker_id)
        if session is None:
            session = subscribers[broker_id] = await cluster.subscriber(broker_id)
        return session

    async def get_producer(broker_id: int) -> ProducerSession:
        session = producers.get(broker_id)
        if session is None:
            session = producers[broker_id] = await cluster.producer(broker_id)
        return session

    await cluster.start()
    try:
        for step in script.steps:
            for event in step.chaos:
                if event.action == "kill":
                    # Quiet the pipeline first: scenario-scheduled kills are
                    # deterministic (no publish in flight dies with the
                    # broker); the mid-traffic variant lives in the tests.
                    await cluster.quiesce()
                    dead = await controller.kill(event.broker, snapshot=event.snapshot)
                    absorb(event.broker, dead)
                    producers.pop(event.broker, None)
                    subscribers.pop(event.broker, None)
                elif event.action == "restart":
                    if not event.restore:
                        # Cold rejoin resets the sid allocator; stale map
                        # entries would alias the re-minted sids.
                        for key in [k for k in serial_by_sid if k[0] == event.broker]:
                            del serial_by_sid[key]
                    await controller.restart(event.broker, restore=event.restore)
                else:
                    await controller.execute(event)
            for op in step.churn:
                if op.skipped:
                    continue
                record = script.subs[op.serial]
                session = await get_subscriber(record.broker)
                if op.kind == "subscribe":
                    sid = await session.subscribe(record.subscription)
                    sid_by_serial[op.serial] = sid
                    serial_by_sid[(record.broker, sid)] = op.serial
                else:
                    await session.unsubscribe(sid_by_serial[op.serial])
            await cluster.run_propagation_period()
            for pub in step.publishes:
                await (await get_producer(pub.broker)).publish(pub.event)
            await cluster.settle()

        for broker_id, runtime in sorted(cluster.runtimes.items()):
            absorb(broker_id, runtime)
        # Session-side double check: no subscriber connection saw the same
        # (sid, event) notification twice either.
        for session in cluster._subscribers:
            seen: Set[Tuple[SubscriptionId, object]] = set()
            for sid, event in session.deliveries:
                if (sid, event) in seen:
                    duplicates += 1
                seen.add((sid, event))
        enqueued, processed = cluster._frame_totals()
        frames_balance = (enqueued - cluster._quiesce_bias, processed)
        survivors = list(cluster.runtimes.values())
        retired = [r for incarnations in controller.killed.values() for r in incarnations]
        live_metrics = {
            "fallback_requests": sum(
                r.broker.fallback_requests for r in survivors + retired
            ),
            "fallback_replies": sum(
                r.broker.fallback_replies for r in survivors + retired
            ),
            "event_reroutes": sum(
                getattr(r.router, "event_reroutes", 0) for r in survivors + retired
            ),
            "frames_dropped": sum(
                r.frames_dropped for r in survivors + retired
            ),
        }
    finally:
        await cluster.stop(drain=False)

    return ScenarioOutcome(
        scenario=config.name,
        substrate="live",
        expected=expected_deliveries(script, honor_chaos=True),
        achieved=achieved,
        duplicates=duplicates,
        publishes=len(script.pubs),
        churn_ops=script.churn_ops,
        skipped_ops=script.skipped_ops,
        frames_balance=frames_balance,
        metrics=live_metrics,
    )


def run_scenario_live(
    config: ScenarioConfig,
    *,
    snapshot_dir: Optional[str] = None,
) -> ScenarioOutcome:
    """Execute one scenario config against a real ``LocalCluster``.

    Synchronous wrapper (owns its event loop).  ``snapshot_dir`` is where
    chaos snapshots land; a temporary directory is used when omitted.
    """

    async def body(directory: Path) -> ScenarioOutcome:
        return await _drive_scenario_live(config, directory)

    if snapshot_dir is not None:
        return asyncio.run(body(Path(snapshot_dir)))
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        return asyncio.run(body(Path(tmp)))
