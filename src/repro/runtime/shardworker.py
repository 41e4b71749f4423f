"""Shard worker process: one asyncio loop matching against a read-only
compiled snapshot.

This module is the spawn target of
:class:`~repro.runtime.sharded.ShardedBrokerRuntime` and deliberately
imports only what matching needs (no server, no cluster, no networkx
topologies) so the per-worker spawn cost stays at interpreter start plus
the summary/model import.

Protocol (see :mod:`repro.wire.worker`): the worker sends one
:class:`~repro.wire.worker.WorkerReady`, then loops over its pipe —

* :class:`~repro.wire.worker.SnapshotFrame` → unpickle the
  :class:`~repro.summary.summary.BrokerSummary`, compile a fresh
  :class:`~repro.summary.compiled.CompiledMatcher`, install the fence
  token.  Compilation happens *here*, not in the acceptor: the compiled
  tables hold pattern-method closures that do not pickle, and compiling
  per worker keeps each core's matcher cache-local anyway.
* :class:`~repro.wire.worker.MatchRequest` → fence check, then
  ``match_many`` over the sub-burst; reply in request order (the pipe is
  FIFO, the acceptor relies on it).
* :class:`~repro.wire.worker.StopFrame` / EOF → exit.

A fence mismatch replies ``matched=None`` rather than raising: the
acceptor owns the protocol-error decision, and a worker that dies on the
first bad frame would take every in-flight request down with it.
"""

from __future__ import annotations

import asyncio
import pickle
import os
from multiprocessing.connection import Connection

from repro.summary.compiled import CompiledMatcher
from repro.wire.worker import (
    MatchReply,
    MatchRequest,
    SnapshotFrame,
    StopFrame,
    WorkerReady,
)

__all__ = ["shard_worker_main"]


async def _wait_readable(conn: Connection) -> None:
    """Park until the pipe has at least one frame (edge-triggered via the
    loop's reader callback; removed immediately so recv stays blocking-free
    through ``poll``)."""
    loop = asyncio.get_running_loop()
    ready = loop.create_future()

    def _on_readable() -> None:
        if not ready.done():
            ready.set_result(None)

    loop.add_reader(conn.fileno(), _on_readable)
    try:
        await ready
    finally:
        loop.remove_reader(conn.fileno())


async def _worker_loop(conn: Connection, shard: int) -> None:
    matcher: CompiledMatcher | None = None
    fence = -1
    events_matched = 0
    conn.send(WorkerReady(shard=shard, pid=os.getpid()))
    while True:
        while not conn.poll():
            await _wait_readable(conn)
        try:
            frame = conn.recv()
        except (EOFError, OSError):
            return
        if isinstance(frame, StopFrame):
            return
        if isinstance(frame, SnapshotFrame):
            summary = pickle.loads(frame.payload)
            matcher = CompiledMatcher(summary)
            fence = frame.fence
        elif isinstance(frame, MatchRequest):
            if matcher is None or frame.fence != fence:
                conn.send(MatchReply(
                    request_id=frame.request_id, shard=shard, fence=fence,
                    matched=None, events_matched=events_matched,
                ))
                continue
            matched = tuple(
                frozenset(ids) for ids in matcher.match_many(list(frame.events))
            )
            events_matched += len(frame.events)
            conn.send(MatchReply(
                request_id=frame.request_id, shard=shard, fence=fence,
                matched=matched, events_matched=events_matched,
            ))
        # Unknown frames are ignored: forward compatibility for same-host
        # version skew during rolling development is not a goal, but dying
        # on them would turn a programming error into a hung acceptor.


def shard_worker_main(conn: Connection, shard: int) -> None:
    """Spawn entry point (must stay module-level and picklable by name)."""
    try:
        asyncio.run(_worker_loop(conn, shard))
    except KeyboardInterrupt:
        pass
    finally:
        conn.close()
