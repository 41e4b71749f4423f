"""Boot a whole overlay of live brokers on localhost.

:class:`LocalCluster` creates one :class:`~repro.runtime.server
.BrokerRuntime` per topology node (all in the current event loop), binds
each to an ephemeral port, and exchanges the address map — the live
equivalent of constructing a :class:`~repro.broker.system.SummaryPubSub`.
It adds the coordination the paper's round-based algorithms assume:

* :meth:`quiesce` — wait until no broker-to-broker frame is queued,
  in flight, or mid-dispatch anywhere (cluster-wide
  ``frames_enqueued == frames_processed``, stable across polls).
* :meth:`run_propagation_period` — Algorithm 2 exactly: brokers act in
  ascending degree order with a quiesce barrier between iterations (the
  live analogue of the simulator's ``flush_iteration``), then every
  broker folds its delta.  Same code path
  (:func:`~repro.broker.propagation.select_period_target`) as the
  simulator, so both substrates pick identical targets.
* :meth:`settle` — producer flushes + quiesce + subscriber flushes: after
  it returns, every published event has fully routed and every resulting
  notification is in the subscribers' ``deliveries`` lists.

``repro-cluster`` (see :func:`main`) is the CLI smoke path: boot a named
topology, drive a seeded stock workload through real sockets, print the
traffic/delivery summary, optionally drain to snapshots.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.broker.persistence import SnapshotCodec, snapshot_path
from repro.broker.propagation import TargetPolicy
from repro.model.schema import Schema, stock_schema
from repro.network.metrics import NetworkMetrics
from repro.network.topology import Topology
from repro.runtime.client import ProducerSession, SubscriberSession
from repro.runtime.server import (
    DEFAULT_BATCH_FRAMES,
    DEFAULT_QUEUE_FRAMES,
    BrokerRuntime,
    named_topology,
    warn_reference_matcher,
)
from repro.summary.precision import Precision
from repro.wire.codec import ValueWidth
from repro.workload.stocks import StockWorkload

__all__ = ["LocalCluster", "main"]


class LocalCluster:
    """Every broker of one topology, live on localhost ports."""

    def __init__(
        self,
        topology: Topology,
        schema: Schema,
        *,
        precision: Precision = Precision.COARSE,
        value_width: ValueWidth = ValueWidth.F64,
        matcher: str = "compiled",
        propagation_policy: TargetPolicy = TargetPolicy.HIGHEST_DEGREE,
        propagation_mode: str = "delta",
        suppress_covered: bool = True,
        queue_frames: int = DEFAULT_QUEUE_FRAMES,
        batch_frames: int = DEFAULT_BATCH_FRAMES,
        period_interval: Optional[float] = None,
        snapshot_dir: Optional[str] = None,
        host: str = "127.0.0.1",
        tracer=None,
        paranoid: Optional[bool] = None,
        shards: Union[int, None, Dict[int, int]] = None,
    ):
        self.topology = topology
        self.schema = schema
        self.host = host
        self.snapshot_dir = Path(snapshot_dir) if snapshot_dir is not None else None
        #: ``shards``: None/1 boots plain single-process runtimes; an int
        #: boots every broker as a :class:`ShardedBrokerRuntime` with that
        #: many workers; a ``{broker_id: n}`` mapping shards only the named
        #: brokers (n > 1).  Preserved across ``restart_broker`` — a
        #: restarted sharded broker comes back sharded.
        if isinstance(shards, dict):
            self._shards = dict(shards)
        elif shards is None or shards <= 1:
            self._shards = {}
        else:
            self._shards = {broker_id: shards for broker_id in topology.brokers}
        self._runtime_options = dict(
            precision=precision,
            value_width=value_width,
            matcher=matcher,
            propagation_policy=propagation_policy,
            propagation_mode=propagation_mode,
            suppress_covered=suppress_covered,
            queue_frames=queue_frames,
            batch_frames=batch_frames,
            period_interval=period_interval,
            snapshot_dir=snapshot_dir,
            host=host,
            tracer=tracer,
            paranoid=paranoid,
        )
        self.runtimes: Dict[int, BrokerRuntime] = {
            broker_id: self._build_runtime(broker_id) for broker_id in topology.brokers
        }
        self.addresses: Dict[int, Tuple[str, int]] = {}
        self._producers: List[ProducerSession] = []
        self._subscribers: List[SubscriberSession] = []
        self._sessions_by_broker: Dict[int, List] = {}
        self._started = False
        # Chaos bookkeeping: counters of killed incarnations are folded
        # into this ledger so cluster-wide quiesce arithmetic stays exact
        # across kills, and the first quiesce after a kill/restart rebases
        # on observed stability (a crash mid-pipeline loses frames nobody
        # can account for frame-by-frame).
        self._ledger_enqueued = 0
        self._ledger_processed = 0
        self._quiesce_bias = 0
        self._chaos_dirty = False

    def _build_runtime(self, broker_id: int, epoch: Optional[int] = None) -> BrokerRuntime:
        """One broker runtime, sharded when the config says so (the spawn
        cost is paid at ``start``, not here)."""
        shards = self._shards.get(broker_id, 1)
        if shards > 1:
            from repro.runtime.sharded import ShardedBrokerRuntime

            return ShardedBrokerRuntime(
                broker_id,
                self.topology,
                self.schema,
                epoch=epoch,
                shards=shards,
                **self._runtime_options,
            )
        return BrokerRuntime(
            broker_id,
            self.topology,
            self.schema,
            epoch=epoch,
            **self._runtime_options,
        )

    # -- lifecycle -------------------------------------------------------------

    async def start(self, restore_from: Optional[str] = None) -> Dict[int, Tuple[str, int]]:
        """Bind every broker, exchange addresses; optionally restore all
        broker state from a drained cluster's snapshot directory first.
        Returns the address map."""
        if self._started:
            raise RuntimeError("cluster already started")
        if restore_from is not None:
            self._restore(Path(restore_from))
        for broker_id, runtime in sorted(self.runtimes.items()):
            port = await runtime.start(0)
            self.addresses[broker_id] = (self.host, port)
        for runtime in self.runtimes.values():
            runtime.set_peers(self.addresses)
        self._started = True
        return dict(self.addresses)

    def _restore(self, source: Path) -> None:
        """Load one drained snapshot per broker (same stray/missing rules
        as :func:`~repro.broker.persistence.load_system`)."""
        expected = {snapshot_path(source, b).name for b in self.topology.brokers}
        strays = sorted(
            p.name for p in source.glob("broker-*.snap") if p.name not in expected
        )
        if strays:
            raise ValueError(
                f"snapshot directory {source} holds snapshots for brokers not "
                f"in this topology ({', '.join(strays)}); refusing to "
                f"half-restore a mismatched deployment"
            )
        for broker_id, runtime in sorted(self.runtimes.items()):
            path = snapshot_path(source, broker_id)
            if not path.exists():
                raise FileNotFoundError(
                    f"missing snapshot for broker {broker_id}: {path}"
                )
            SnapshotCodec(runtime.wire).restore_broker(
                path.read_bytes(), runtime.broker
            )

    async def stop(self, drain: bool = True) -> List[Path]:
        """Close client sessions, then shut every broker down (with
        ``drain``: flush + snapshot when a ``snapshot_dir`` was given).
        Returns the snapshot paths written."""
        for session in self._producers + self._subscribers:
            await session.close()
        self._producers.clear()
        self._subscribers.clear()
        self._sessions_by_broker.clear()
        written = await asyncio.gather(
            *(runtime.shutdown(drain=drain) for runtime in self.runtimes.values())
        )
        return [path for path in written if path is not None]

    # -- client sessions -------------------------------------------------------

    async def producer(self, broker_id: int) -> ProducerSession:
        host, port = self.addresses[broker_id]
        session = await ProducerSession.connect(
            host, port, self.runtimes[broker_id].message_codec
        )
        self._producers.append(session)
        self._sessions_by_broker.setdefault(broker_id, []).append(session)
        return session

    async def subscriber(self, broker_id: int) -> SubscriberSession:
        host, port = self.addresses[broker_id]
        session = await SubscriberSession.connect(
            host, port, self.runtimes[broker_id].message_codec
        )
        self._subscribers.append(session)
        self._sessions_by_broker.setdefault(broker_id, []).append(session)
        return session

    # -- chaos lifecycle -------------------------------------------------------

    async def kill_broker(self, broker_id: int) -> BrokerRuntime:
        """Abruptly crash one broker — no drain, sockets torn mid-frame.

        The dead incarnation's frame counters are folded into the cluster
        ledger (quiesce arithmetic must keep seeing them), its client
        sessions are closed and forgotten, and the stale address entry is
        deliberately *kept*: neighbours go on dialling the dead port, which
        is exactly the failure the reconnect/reroute machinery must absorb.
        Returns the killed runtime — its engine objects (``broker
        .deliveries`` above all) survive for post-mortem accounting.
        """
        runtime = self.runtimes.pop(broker_id)
        for session in self._sessions_by_broker.pop(broker_id, []):
            try:
                await session.close()
            except (ConnectionError, OSError):
                pass
            if session in self._producers:
                self._producers.remove(session)
            if session in self._subscribers:
                self._subscribers.remove(session)
        await runtime.kill()
        self._ledger_enqueued += runtime.frames_enqueued - runtime.frames_dropped
        self._ledger_processed += runtime.frames_processed
        self._chaos_dirty = True
        return runtime

    async def snapshot_broker(self, broker_id: int, directory=None) -> Path:
        """Persist one live broker's state (the chaos harness' stand-in
        for a periodic snapshotter having just run before a crash)."""
        from repro.broker.persistence import save_broker

        target = Path(directory) if directory is not None else self.snapshot_dir
        if target is None:
            raise ValueError("no snapshot directory (pass one or set snapshot_dir)")
        runtime = self.runtimes[broker_id]
        return save_broker(runtime.broker, target, runtime.wire)

    async def restart_broker(
        self,
        broker_id: int,
        *,
        restore_from=None,
        epoch: Optional[int] = None,
    ) -> BrokerRuntime:
        """Boot a fresh incarnation of a killed broker on a *new* port.

        ``restore_from`` warm-starts it from ``broker-<id>.snap`` in that
        directory; otherwise it cold-rejoins empty.  Either way the updated
        address map is re-published to every runtime so existing peer lanes
        re-point at the new port (see ``PeerLink.update_address``).  The
        epoch defaults to the process-wide allocator, which never reissues
        a prior incarnation's value — cold rejoins must not re-mint publish
        ids surviving dedup tables have already seen.
        """
        if broker_id in self.runtimes:
            raise RuntimeError(f"broker {broker_id} is still running")
        runtime = self._build_runtime(broker_id, epoch=epoch)
        if restore_from is not None:
            path = snapshot_path(Path(restore_from), broker_id)
            SnapshotCodec(runtime.wire).restore_broker(path.read_bytes(), runtime.broker)
            # The snapshot is authoritative for this broker's OWN state
            # (store, sid watermark) but its remote knowledge is frozen at
            # snapshot time: ``merged_brokers`` claims coverage of churn
            # that happened while the broker was down, without the rows to
            # back it.  Serving that overclaim to a neighbor's fallback
            # SummaryRequest would poison the neighbor's (monotone) claim
            # set and terminate later event searches before the owner is
            # found.  Rejoin with own-rows-only truth; the delta-chain
            # fallbacks re-derive remote knowledge from live neighbors.
            runtime.broker.reset_merged_state()
            # The reset closed the runtime's always-open period scratch;
            # reopen it so peer frames can be absorbed immediately.
            runtime._open_period()
        port = await runtime.start(0)
        self.runtimes[broker_id] = runtime
        self.addresses[broker_id] = (self.host, port)
        for peer in self.runtimes.values():
            peer.set_peers(self.addresses)
        self._chaos_dirty = True
        return runtime

    # -- coordination ----------------------------------------------------------

    def _frame_totals(self) -> Tuple[int, int]:
        enqueued = self._ledger_enqueued + sum(
            r.frames_enqueued - r.frames_dropped for r in self.runtimes.values()
        )
        processed = self._ledger_processed + sum(
            r.frames_processed for r in self.runtimes.values()
        )
        return enqueued, processed

    async def quiesce(self, timeout: float = 30.0) -> None:
        """Return when no broker-to-broker frame is anywhere in flight.

        A frame counts as *enqueued* when a broker puts it on a peer
        queue and *processed* when the receiver has dispatched it AND
        pumped its downstream sends onto queues — so cluster-wide
        equality (minus frames dropped on dead links) means every
        consequence of every send has itself been sent, i.e. true
        quiescence.  Checked stable across two polls to dodge the one
        instant a handler sits between its pump and its counter bump.

        After a kill or restart the strict identity cannot hold: frames
        can die unaccounted mid-crash (written to a socket whose reader
        was cancelled, accepted by a server that never dispatched them).
        The first quiesce after such an event therefore waits for the
        totals to stop *moving* (a longer stability window) and rebases
        the residual imbalance into ``_quiesce_bias``; strict arithmetic
        resumes from that baseline.
        """
        if self._chaos_dirty:
            await self._quiesce_rebase(timeout)
            return
        deadline = asyncio.get_running_loop().time() + timeout
        stable = 0
        while stable < 2:
            enqueued, processed = self._frame_totals()
            stable = stable + 1 if enqueued - self._quiesce_bias == processed else 0
            if stable < 2:
                if asyncio.get_running_loop().time() > deadline:
                    raise asyncio.TimeoutError(
                        f"cluster did not quiesce within {timeout}s "
                        f"(enqueued={enqueued}, bias={self._quiesce_bias}, "
                        f"processed={processed})"
                    )
                await asyncio.sleep(0.01)

    async def _quiesce_rebase(self, timeout: float) -> None:
        deadline = asyncio.get_running_loop().time() + timeout
        previous, stable = None, 0
        while stable < 5:
            totals = self._frame_totals()
            stable = stable + 1 if totals == previous else 0
            previous = totals
            if stable < 5:
                if asyncio.get_running_loop().time() > deadline:
                    raise asyncio.TimeoutError(
                        f"cluster did not stabilise after chaos within {timeout}s "
                        f"(totals={totals})"
                    )
                await asyncio.sleep(0.02)
        enqueued, processed = previous
        self._quiesce_bias = enqueued - processed
        self._chaos_dirty = False

    async def run_propagation_period(self) -> None:
        """One coordinated Algorithm-2 period, exactly as the simulator's
        :class:`~repro.broker.propagation.PropagationEngine` runs it:
        degree class ``i`` acts at iteration ``i``, and a quiesce barrier
        stands in for the simulator's per-iteration message flush.  Killed
        brokers simply miss their slot (their neighbours' frames to them
        are dropped and counted by the link layer)."""
        for iteration in range(1, self.topology.max_degree + 1):
            for broker_id in self.topology.brokers_by_degree(iteration):
                runtime = self.runtimes.get(broker_id)
                if runtime is not None:
                    await runtime.period_act()
            await self.quiesce()
        for broker_id in sorted(self.runtimes):
            self.runtimes[broker_id].period_close()

    async def settle(self) -> None:
        """Drain the whole pipeline: producer flushes (brokers ingested
        every publish), quiesce (all broker-to-broker routing finished),
        subscriber flushes (every queued NOTIFY delivered and recorded)."""
        for session in self._producers:
            await session.flush()
        await self.quiesce()
        for session in self._subscribers:
            await session.flush()

    # -- observability ---------------------------------------------------------

    def metrics(self) -> NetworkMetrics:
        """All brokers' traffic ledgers merged into one."""
        merged = NetworkMetrics()
        for runtime in self.runtimes.values():
            merged.merge(runtime.metrics)
        return merged

    def total_deliveries(self) -> int:
        return sum(len(r.broker.deliveries) for r in self.runtimes.values())

    def __repr__(self) -> str:
        state = "started" if self._started else "cold"
        return (
            f"LocalCluster({self.topology.num_brokers} brokers, {state}, "
            f"{len(self._subscribers)} subscribers)"
        )


# -- CLI ------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-cluster",
        description="Boot a live broker overlay on localhost and drive a "
                    "seeded stock workload through it.",
    )
    parser.add_argument("--topology", default="cw24",
                        help="cw24 | tree13 | line<N> | star<N> | scalefree<N>")
    parser.add_argument("--subscriptions", type=int, default=4,
                        help="subscriptions per broker")
    parser.add_argument("--events", type=int, default=50,
                        help="events to publish (round-robin over brokers)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--matcher", choices=("reference", "compiled"),
                        default="compiled",
                        help="event-matching engine (default: compiled — the "
                             "batched fast path; 'reference' is deprecated on "
                             "the live path and kept for debugging)")
    parser.add_argument("--snapshot-dir", default=None,
                        help="drain every broker to snapshots on exit")
    parser.add_argument("--propagation-mode", choices=("delta", "full"),
                        default="delta",
                        help="summary propagation frames (default: delta — "
                             "incremental SUMMARY_DELTA with generation "
                             "chaining; 'full' re-ships whole summaries)")
    parser.add_argument("--paranoid", action="store_true")
    parser.add_argument("--shards", type=int, default=1,
                        help="worker processes per broker for the match hot "
                             "path (1 = single-process brokers)")
    return parser


async def _demo(args: argparse.Namespace) -> None:
    topology = named_topology(args.topology)
    workload = StockWorkload(seed=args.seed)
    cluster = LocalCluster(
        topology,
        workload.schema,
        matcher=args.matcher,
        snapshot_dir=args.snapshot_dir,
        propagation_mode=args.propagation_mode,
        paranoid=True if args.paranoid else None,
        shards=args.shards,
    )
    await cluster.start()
    print(f"cluster up: {topology!r}", flush=True)

    for broker_id in topology.brokers:
        subscriber = await cluster.subscriber(broker_id)
        for _ in range(args.subscriptions):
            await subscriber.subscribe(workload.subscription())
    await cluster.run_propagation_period()
    print(
        f"registered {args.subscriptions * topology.num_brokers} subscriptions, "
        f"ran one propagation period",
        flush=True,
    )

    producers = [await cluster.producer(b) for b in topology.brokers]
    for index in range(args.events):
        await producers[index % len(producers)].publish(workload.tick())
    await cluster.settle()

    metrics = cluster.metrics()
    notified = sum(len(s.deliveries) for s in cluster._subscribers)
    print(
        f"published {args.events} events -> {notified} notifications "
        f"({cluster.total_deliveries()} broker-side deliveries)",
        flush=True,
    )
    print(
        f"traffic: {metrics.messages} messages, {metrics.bytes_sent} bytes "
        f"(charged x path length), {metrics.backpressure_stalls} stalls",
        flush=True,
    )
    written = await cluster.stop(drain=True)
    if written:
        print(f"drained {len(written)} snapshots to {args.snapshot_dir}", flush=True)


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.matcher == "reference":
        warn_reference_matcher("repro-cluster")
    asyncio.run(_demo(args))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
