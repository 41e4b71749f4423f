"""Multicore sharded broker: the match hot path fanned across processes.

A single-process :class:`~repro.runtime.server.BrokerRuntime` saturates
one core on the batched EVENT path (PR 6's soak).  The summary paradigm
makes the expensive step embarrassingly parallel: Algorithm 3's step 1 is
a *read-only* check of one immutable kept-summary snapshot, and two
events never share routing state (publish-id dedup and BROCLI updates are
per-event).  So this runtime keeps everything that mutates broker state
in one process — the **acceptor** — and ships only the summary match to
**shard workers**:

.. code-block:: text

    producers/peers ──TCP──►  acceptor process (ShardedBrokerRuntime)
                              │  control plane: SUBSCRIBE / SUMMARY /
                              │  SUMMARY_DELTA, periods, snapshots,
                              │  SIGTERM drain, Algorithm 3 steps 2-4
                              │
                              │  EVENT bursts, partitioned by
                              │  shard_for(publish_id, n)
                              ▼
          ┌────────────┬────────────┬────────────┐
          │ worker 0   │ worker 1   │ worker n-1 │   (spawned processes,
          │ asyncio +  │ asyncio +  │ asyncio +  │    one per core, own
          │ Compiled-  │ Compiled-  │ Compiled-  │    CompiledMatcher)
          │ Matcher    │ Matcher    │ Matcher    │
          └────────────┴────────────┴────────────┘

**Snapshot fencing invariant.**  Every worker pipe is FIFO.  The acceptor
broadcasts a pickled :class:`~repro.summary.summary.BrokerSummary` under a
monotone *fence* token whenever the kept summary moved — any mutation
path: period close, a fallback-resync snapshot absorb, an unsubscribe —
and stamps every :class:`~repro.wire.worker.MatchRequest` with the fence
of the snapshot it was partitioned under.  Because snapshot and requests
travel the same FIFO pipe, a worker that sees fence ``F`` on a request has
already installed snapshot ``F``; if its installed token disagrees it
answers ``matched=None`` and the acceptor raises instead of routing on
stale matches.  The fence is *not* the summary generation:
``reset_merged_state`` swaps the summary object and restarts generations,
which could alias.

**What stays single-process.**  Subscription state, covered-id
suppression, period scheduling, delta chaining, dedup LRUs, delivery
fan-out and the outbox pump all stay in the acceptor: they are mutation-
heavy, ordering-sensitive, and cheap next to matching.  Workers hold no
authoritative state at all — killing them loses nothing but warm caches.

Backpressure reuses the existing accounting: each worker pipe allows a
bounded number of in-flight batches; a dispatch that would exceed it
counts a coalesced-write stall (``metrics.record_stall``) and waits, so
the soak's stall gauge covers worker pipes exactly like peer queues.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import logging
import multiprocessing
import pickle
from collections import deque
from typing import Deque, FrozenSet, List, Optional, Set, Tuple

from repro.model.events import Event
from repro.model.ids import SubscriptionId
from repro.obs.audit import AuditError
from repro.obs.metrics import MetricsRegistry
from repro.runtime.server import BrokerRuntime
from repro.runtime.shardworker import shard_worker_main
from repro.wire.worker import MatchReply, MatchRequest, SnapshotFrame, StopFrame, WorkerReady

__all__ = ["ShardedBrokerRuntime", "ShardError", "shard_for"]

log = logging.getLogger("repro.runtime.sharded")

#: In-flight match batches allowed per worker pipe before a dispatch
#: stalls.  Two keeps a worker busy while its reply drains (pipelining)
#: without letting an acceptor burst grow an unbounded pickle backlog.
MAX_INFLIGHT_BATCHES = 2

_MASK64 = (1 << 64) - 1


def shard_for(publish_id: int, shards: int) -> int:
    """The shard that matches ``publish_id`` — stable across processes,
    platforms and ``PYTHONHASHSEED``.

    The splitmix64 finalizer: publish ids are *structured* (a constant
    marker bit, an epoch byte that is near-constant within a run, a broker
    field drawn from a handful of values, and a low sequence counter — see
    ``EventRouter.next_publish_id``), so reducing them modulo ``n``
    directly would alias entire epochs onto one shard.  The finalizer's
    avalanche spreads every input bit over the output, giving a uniform
    spread even over sequential ids (chi-square-bounded by
    ``tests/runtime/test_sharding.py``).
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    x = publish_id & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x % shards


class ShardError(RuntimeError):
    """A shard worker died or broke the acceptor↔worker protocol.

    Deliberately loud (not a swallowed ``ConnectionError``): workers hold
    no authoritative state, so their only failure modes are a crash — in
    which case this broker can no longer match its share of events and
    must be treated as failed, exactly like the chaos model's whole-broker
    kill — or an acceptor-side protocol bug that must never be masked as
    an empty match result.
    """


class _ShardHandle:
    """Acceptor-side state for one worker: process, pipe, FIFO futures."""

    __slots__ = (
        "index", "process", "conn", "pending", "inflight", "send_lock",
        "events_matched", "batches", "dead",
    )

    def __init__(self, index: int, process, conn) -> None:
        self.index = index
        self.process = process
        self.conn = conn
        #: (request_id, future) in dispatch order — replies are FIFO.
        self.pending: Deque[Tuple[int, asyncio.Future]] = deque()
        self.inflight = asyncio.Semaphore(MAX_INFLIGHT_BATCHES)
        #: Serializes pipe writes (they run on executor threads) so frame
        #: order on the pipe equals dispatch order — the fencing invariant
        #: rides on it.
        self.send_lock = asyncio.Lock()
        self.events_matched = 0
        self.batches = 0
        self.dead = False


class ShardPool:
    """Spawned shard workers plus the dispatch/collect machinery.

    Pipe writes go through an executor thread under the handle's send
    lock: a blocking in-loop ``Connection.send`` could deadlock against a
    worker blocked writing a large reply (neither side draining), whereas
    a thread write keeps the event loop free to drain replies.
    """

    def __init__(self, shards: int, stall_cb=None) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.shards = shards
        self._stall_cb = stall_cb
        self.handles: List[_ShardHandle] = []
        self.snapshot_broadcasts = 0
        self._request_ids = itertools.count(1)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stopped = False

    async def start(self) -> None:
        """Spawn every worker and wait for their READY frames."""
        self._loop = asyncio.get_running_loop()
        ctx = multiprocessing.get_context("spawn")
        for index in range(self.shards):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            process = ctx.Process(
                target=shard_worker_main,
                args=(child_conn, index),
                name=f"repro-shard-{index}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            self.handles.append(_ShardHandle(index, process, parent_conn))
        ready = [
            self._expect_frame(handle, WorkerReady) for handle in self.handles
        ]
        await asyncio.gather(*ready)
        for handle in self.handles:
            self._loop.add_reader(
                handle.conn.fileno(), self._drain_replies, handle
            )

    async def _expect_frame(self, handle: _ShardHandle, kind) -> None:
        frame = await self._loop.run_in_executor(None, handle.conn.recv)
        if not isinstance(frame, kind):
            raise ShardError(
                f"shard {handle.index}: expected {kind.__name__}, "
                f"got {type(frame).__name__}"
            )

    # -- reply side (event-loop reader callback) -----------------------------

    def _drain_replies(self, handle: _ShardHandle) -> None:
        while True:
            try:
                if not handle.conn.poll():
                    return
                reply = handle.conn.recv()
            except (EOFError, OSError):
                self._fail_handle(handle, "shard worker pipe closed")
                return
            if not handle.pending:
                self._fail_handle(handle, "unsolicited shard reply")
                return
            request_id, future = handle.pending.popleft()
            if not isinstance(reply, MatchReply) or reply.request_id != request_id:
                self._fail_handle(
                    handle,
                    f"shard {handle.index} answered out of order "
                    f"(wanted request {request_id})",
                )
                return
            handle.events_matched = reply.events_matched
            if not future.done():
                future.set_result(reply)

    def _fail_handle(self, handle: _ShardHandle, reason: str) -> None:
        handle.dead = True
        with contextlib.suppress(OSError):
            self._loop.remove_reader(handle.conn.fileno())
        while handle.pending:
            _request_id, future = handle.pending.popleft()
            if not future.done():
                if self._stopped:
                    future.cancel()
                else:
                    future.set_exception(ShardError(reason))
        if not self._stopped:
            log.error("shard %d failed: %s", handle.index, reason)

    # -- send side -----------------------------------------------------------

    async def _send(self, handle: _ShardHandle, frame) -> None:
        if handle.dead:
            raise ShardError(f"shard {handle.index} is dead")
        await self._loop.run_in_executor(None, handle.conn.send, frame)

    async def broadcast_snapshot(self, fence: int, payload: bytes) -> None:
        """Install a new snapshot on every worker (caller holds the
        runtime's dispatch lock, so no match request interleaves)."""
        for handle in self.handles:
            async with handle.send_lock:
                await self._send(handle, SnapshotFrame(fence=fence, payload=payload))
        self.snapshot_broadcasts += 1

    async def dispatch(
        self, fence: int, events: List[Event], publish_ids: List[int]
    ) -> List[Tuple[_ShardHandle, List[int], asyncio.Future]]:
        """Partition one burst by publish-id hash and send the per-shard
        sub-bursts.  Returns collect() input; the caller must collect even
        on failure paths (the semaphores are released there)."""
        buckets = {}
        for position, publish_id in enumerate(publish_ids):
            buckets.setdefault(
                shard_for(publish_id, self.shards), []
            ).append(position)
        dispatches = []
        for shard in sorted(buckets):
            handle = self.handles[shard]
            positions = buckets[shard]
            if handle.inflight.locked() and self._stall_cb is not None:
                self._stall_cb()
            await handle.inflight.acquire()
            request_id = next(self._request_ids)
            future = self._loop.create_future()
            request = MatchRequest(
                request_id=request_id,
                fence=fence,
                events=tuple(events[i] for i in positions),
            )
            try:
                async with handle.send_lock:
                    handle.pending.append((request_id, future))
                    await self._send(handle, request)
            except BaseException:
                handle.inflight.release()
                with contextlib.suppress(ValueError):
                    handle.pending.remove((request_id, future))
                for previous_handle, _positions, _future in dispatches:
                    # Collect never runs on this path; do not leak permits.
                    previous_handle.inflight.release()
                raise
            dispatches.append((handle, positions, future))
        return dispatches

    async def collect(
        self,
        fence: int,
        dispatches: List[Tuple[_ShardHandle, List[int], asyncio.Future]],
        total: int,
    ) -> List[Set[SubscriptionId]]:
        """Await every reply and reassemble results in arrival order."""
        results: List[Optional[Set[SubscriptionId]]] = [None] * total
        failure: Optional[BaseException] = None
        for handle, positions, future in dispatches:
            try:
                reply = await future
            except BaseException as exc:  # keep draining: release permits
                failure = failure or exc
                continue
            finally:
                handle.inflight.release()
            handle.batches += 1
            if reply.matched is None or reply.fence != fence:
                failure = failure or ShardError(
                    f"shard {handle.index} fence violation: request fence "
                    f"{fence}, worker fence {reply.fence}"
                )
                continue
            for position, ids in zip(positions, reply.matched):
                results[position] = set(ids)
        if failure is not None:
            raise failure
        return results  # type: ignore[return-value]

    # -- lifecycle -----------------------------------------------------------

    async def stop(self) -> None:
        """Graceful: STOP frame, bounded join, then escalate."""
        if self._stopped:
            return
        self._stopped = True
        for handle in self.handles:
            if not handle.dead:
                with contextlib.suppress(OSError, ValueError):
                    self._loop.remove_reader(handle.conn.fileno())
                with contextlib.suppress(OSError, BrokenPipeError):
                    await self._loop.run_in_executor(
                        None, handle.conn.send, StopFrame()
                    )
        for handle in self.handles:
            await self._loop.run_in_executor(None, handle.process.join, 5.0)
            if handle.process.is_alive():
                handle.process.terminate()
                await self._loop.run_in_executor(None, handle.process.join, 5.0)
            handle.conn.close()
            self._fail_handle(handle, "pool stopped")

    def kill(self) -> None:
        """Abrupt: terminate worker processes where they stand (the chaos
        model's ``kill -9`` covers the whole broker, workers included)."""
        if self._stopped:
            return
        self._stopped = True
        for handle in self.handles:
            if self._loop is not None:
                with contextlib.suppress(OSError, ValueError):
                    self._loop.remove_reader(handle.conn.fileno())
            if handle.process.is_alive():
                handle.process.terminate()
            handle.conn.close()
            self._fail_handle(handle, "pool killed")


class ShardedBrokerRuntime(BrokerRuntime):
    """A :class:`BrokerRuntime` whose summary matches run in ``shards``
    worker processes.

    Drop-in everywhere the base runtime is accepted: same wire protocol,
    same control plane, same counters (``events_examined`` advances per
    matched event exactly like ``match_kept_many`` does), same paranoid
    auditor hooks — plus a cross-process parity audit: under
    ``REPRO_PARANOID=1`` the acceptor re-matches every burst locally and
    raises :class:`~repro.obs.audit.AuditError` on any divergence from the
    workers' answer.
    """

    def __init__(self, *args, shards: int = 2, **kwargs):
        super().__init__(*args, **kwargs)
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.shards = shards
        self._pool: Optional[ShardPool] = None
        #: Identity of the last broadcast snapshot: ``(id(summary),
        #: generation)``.  A strong ref to the summary object pins the id
        #: against reuse after ``reset_merged_state`` swaps objects.
        self._snapshot_key: Optional[Tuple[int, int]] = None
        self._snapshot_ref = None
        self._snapshot_fence = 0
        #: Serializes snapshot broadcasts with match dispatches: between
        #: deciding "workers hold fence F" and the last per-shard send, no
        #: other burst may broadcast F+1 into the same pipes.
        self._dispatch_lock = asyncio.Lock()

    # -- lifecycle -------------------------------------------------------------

    async def start(self, port: int = 0) -> int:
        pool = ShardPool(self.shards, stall_cb=self.metrics.record_stall)
        await pool.start()
        self._pool = pool
        return await super().start(port)

    async def shutdown(self, drain: bool = True):
        path = await super().shutdown(drain=drain)
        if self._pool is not None:
            await self._pool.stop()
        return path

    async def kill(self) -> None:
        await super().kill()
        if self._pool is not None:
            self._pool.kill()

    # -- the sharded data plane ------------------------------------------------

    async def _process_burst(
        self, items: List[Tuple[Event, FrozenSet[int], int]]
    ) -> None:
        self.metrics.record_match_batch(len(items))
        await self._sharded_process(items)

    async def _publish_events(self, events: List[Event]) -> None:
        self.metrics.record_match_batch(len(events))
        router = self.router
        publish_ids = [router.next_publish_id(self.broker_id) for _ in events]
        if self.tracer.enabled:
            for event, publish_id in zip(events, publish_ids):
                self.tracer.record(
                    "publish", broker=self.broker_id, trace_id=publish_id,
                    attributes=len(event), batched=True,
                )
        await self._sharded_process(
            [
                (event, frozenset(), publish_id)
                for event, publish_id in zip(events, publish_ids)
            ]
        )

    async def _sharded_process(
        self, items: List[Tuple[Event, FrozenSet[int], int]]
    ) -> None:
        """Algorithm 3 for one burst with step 1 fanned to the workers.

        Mirrors ``EventRouter.process_batch`` exactly: the same
        ``first_routing_of`` dedup up front (also the idempotence guard —
        a duplicate arriving on another connection *during* the await is
        already marked routed), the same ``events_examined`` accounting,
        and the identical steps 2–4 via ``EventRouter.route_matched``.
        """
        broker = self.broker
        fresh_items = [
            item for item in items if broker.first_routing_of(item[2])
        ]
        if not fresh_items:
            return
        events = [event for event, _brocli, _pid in fresh_items]
        publish_ids = [pid for _event, _brocli, pid in fresh_items]
        tracer = self.tracer
        if tracer.enabled:
            with tracer.span(
                "shard_match", broker=self.broker_id,
                trace_id=publish_ids[0], batch=len(fresh_items),
                shards=self.shards,
            ) as span:
                matched_sets = await self._match_remote(events, publish_ids)
                span.note(matched=sum(len(m) for m in matched_sets))
        else:
            matched_sets = await self._match_remote(events, publish_ids)
        if self.paranoid:
            # Cross-process parity audit: the acceptor's own matcher is
            # the single-process reference; any divergence is a snapshot
            # staleness or partitioning bug, never survivable.  (This also
            # advances events_examined, replacing the bump below.)
            local_sets = broker.match_kept_many(events)
            for publish_id, remote, local in zip(
                publish_ids, matched_sets, local_sets
            ):
                if remote != local:
                    raise AuditError(
                        f"shard parity: publish {publish_id:#x} matched "
                        f"{sorted(remote)} in workers but {sorted(local)} "
                        f"in the acceptor"
                    )
        else:
            broker.events_examined += len(events)
        self.router.route_matched(broker, fresh_items, matched_sets)

    async def _match_remote(
        self, events: List[Event], publish_ids: List[int]
    ) -> List[Set[SubscriptionId]]:
        broker = self.broker
        async with self._dispatch_lock:
            summary = broker.kept_summary
            key = (id(summary), summary.generation)
            if key != self._snapshot_key:
                # Pickle *inside* the lock and before any await: the bytes
                # must capture the summary exactly as this burst will be
                # audited against; a concurrent absorb lands either before
                # (new key, fresh broadcast) or after (next burst's
                # broadcast) — never halfway into the payload.
                self._snapshot_fence += 1
                payload = pickle.dumps(summary)
                await self._pool.broadcast_snapshot(self._snapshot_fence, payload)
                self._snapshot_key = key
                self._snapshot_ref = summary
            fence = self._snapshot_fence
            dispatches = await self._pool.dispatch(fence, events, publish_ids)
        return await self._pool.collect(fence, dispatches, len(events))

    # -- observability ---------------------------------------------------------

    def collect_metrics(self) -> MetricsRegistry:
        registry = super().collect_metrics()
        registry.gauge("runtime.shards").set(self.shards)
        if self._pool is not None:
            registry.gauge("runtime.shard_snapshot_broadcasts").set(
                self._pool.snapshot_broadcasts
            )
            registry.gauge("runtime.shard_batches").set(
                sum(handle.batches for handle in self._pool.handles)
            )
            registry.gauge("runtime.shard_events_matched").set(
                sum(handle.events_matched for handle in self._pool.handles)
            )
            for handle in self._pool.handles:
                registry.gauge(
                    f"runtime.shard.{handle.index}.batches"
                ).set(handle.batches)
                registry.gauge(
                    f"runtime.shard.{handle.index}.events_matched"
                ).set(handle.events_matched)
        return registry

    def __repr__(self) -> str:
        return (
            f"ShardedBrokerRuntime(id={self.broker_id}, port={self.port}, "
            f"shards={self.shards}, subs={len(self.broker.store)}, "
            f"periods={self.periods_run})"
        )
