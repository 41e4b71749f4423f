"""One live broker process: a :class:`SummaryBroker` behind a TCP server.

:class:`BrokerRuntime` hosts exactly one broker of the overlay and speaks
the frame protocol of :mod:`repro.runtime.framing` on every connection.
The first frame of a connection is a :class:`~repro.wire.messages
.HelloMessage` naming the peer:

* ``ROLE_PEER`` — another broker.  Subsequent frames are the same
  :class:`SummaryDeltaMessage` / :class:`SummaryMessage` /
  :class:`EventMessage` / :class:`NotifyMessage` traffic the simulator
  moves (delta frames by default, with the same per-link generation
  chaining and full-summary fallback the simulator's engine uses),
  dispatched through the *same* engine code
  (:class:`~repro.broker.routing.EventRouter` and the
  :func:`~repro.broker.propagation.select_period_target` policy), so the
  live system makes identical routing decisions to the simulated one.
* ``ROLE_PRODUCER`` / ``ROLE_SUBSCRIBER`` — client sessions publishing
  events and registering subscriptions (SUB/PUB/NOTIFY frames).

**The outbox seam.**  Engine code is synchronous and talks to a network
object with a blocking ``send``.  :class:`RuntimeNetwork` satisfies that
interface by *buffering*: ``send`` appends to an outbox.  After every
synchronously-handled frame the runtime drains the outbox onto per-peer
:class:`PeerLink` queues **before reading the next frame** — the asyncio
single-thread model guarantees no other handler runs between the dispatch
and the drain, so engine sends are never reordered or lost.

**One encode per frame.**  A frame becomes bytes exactly once, in the
lane writer's :meth:`FrameConnection.send_many`; the peer lane meters the
payload lengths that call returns (size x overlay path length, exactly
the simulator's charging rule).  Deliveries to one subscriber session
that one dispatch produces for one event leave as a single NOTIFY whose
``matched`` names every delivered id.

**Backpressure.**  Every outbound queue (per peer link, per client
session) is a bounded :class:`asyncio.Queue`.  A full queue blocks the
producer (and counts a ``backpressure_stalls`` tick in
:class:`~repro.network.metrics.NetworkMetrics`): slow consumers propagate
stalls upstream instead of ballooning memory — the live analogue of the
simulator's synchronous delivery.

**Propagation periods.**  The runtime keeps a period permanently *open*
(an empty delta summary accepting peer merges at any time).
:meth:`period_act` folds the pending batch into the delta and performs the
broker's single Algorithm-2 transmission; :meth:`period_close` folds the
delta into the kept summary and reopens.  A
:class:`~repro.runtime.cluster.LocalCluster` sequences acts in degree
order with quiesce barriers between iterations — byte-identical to the
simulator's :class:`~repro.broker.propagation.PropagationEngine` — while a
standalone broker on a ``period_interval`` timer acts/closes on its own
(knowledge then spreads one hop per tick; Algorithm 3's exhaustive BROCLI
search keeps delivery complete regardless).

**Graceful drain.**  ``shutdown(drain=True)`` (also wired to SIGTERM via
:meth:`install_signal_handlers`) stops accepting, lets in-flight inbound
frames finish, flushes every outbound queue, closes the open period and
writes an atomic snapshot (:func:`~repro.broker.persistence.save_broker`)
a restarted broker resumes from.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import itertools
import logging
import signal
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, List, Optional, Set, Tuple

from repro.broker.broker import SummaryBroker
from repro.broker.persistence import allocate_epoch, save_broker
from repro.broker.propagation import (
    PROPAGATION_MODES,
    TargetPolicy,
    select_period_target,
)
from repro.broker.routing import EventRouter
from repro.model.events import Event
from repro.model.ids import IdCodec, SubscriptionId
from repro.model.schema import Schema, SchemaError, stock_schema
from repro.network.backbone import named_topology
from repro.network.metrics import NetworkMetrics
from repro.network.topology import Topology
from repro.obs.audit import SummaryAuditor, paranoid_enabled
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import NULL_TRACER
from repro.runtime.framing import MAX_FRAME_BYTES, FrameConnection
from repro.summary.maintenance import IdSpaceExhausted
from repro.summary.precision import Precision
from repro.summary.summary import BrokerSummary
from repro.wire.codec import CodecError, ValueWidth, WireCodec
from repro.wire.messages import (
    EventMessage,
    HelloMessage,
    Message,
    MessageCodec,
    NotifyMessage,
    PingMessage,
    PongMessage,
    ROLE_PEER,
    ROLE_PRODUCER,
    ROLE_SUBSCRIBER,
    SubAckMessage,
    SubscribeMessage,
    SummaryDeltaMessage,
    SummaryMessage,
    SummaryRequestMessage,
    UnsubscribeMessage,
)

__all__ = [
    "BrokerRuntime",
    "ClientSession",
    "DEFAULT_BATCH_FRAMES",
    "DEFAULT_QUEUE_FRAMES",
    "PeerLink",
    "RuntimeNetwork",
    "named_topology",
    "warn_reference_matcher",
    "main",
]

log = logging.getLogger("repro.runtime")

#: Default bound of every outbound queue, in frames.  Small enough that a
#: stuck consumer stalls its producers within one propagation period's
#: worth of traffic; large enough that a full inbound dispatch batch can
#: fan its forwards into a peer lane without tripping backpressure (the
#: 4-broker soak runs with zero stalls at this setting).
DEFAULT_QUEUE_FRAMES = 256

#: Default cap on one inbound dispatch batch: how many frames a single
#: socket read may hand to the engines before the outbox is pumped.  Keeps
#: latency for frames *behind* a burst bounded while still amortizing the
#: per-dispatch overhead over many events.  Tail latency scales with this
#: bound: one batch is one uninterruptible slice of event-loop time.
DEFAULT_BATCH_FRAMES = 128

#: Default ``c2`` capacity (mirrors the simulator facade).
DEFAULT_MAX_SUBSCRIPTIONS = 1 << 20


class RuntimeNetwork:
    """The network object the engines see: buffer sends.

    Engine code (:class:`EventRouter`, the shared propagation policy) was
    written against the simulator's ``Network`` interface — ``topology``,
    ``send(src, dst, message)``, ``run()``.  Here ``send`` appends
    ``(dst, message)`` to :attr:`outbox`; the runtime drains the outbox
    onto real TCP links immediately after each synchronous dispatch, and
    the link writer meters what it actually wrote.  ``run()`` is a no-op —
    delivery happens when the frames arrive.
    """

    def __init__(self, topology: Topology):
        self.topology = topology
        self.outbox: List[Tuple[int, Message]] = []

    def send(self, src: int, dst: int, message: Message) -> None:
        self.outbox.append((dst, message))

    def run(self) -> None:
        """Engine compatibility (:meth:`EventRouter.publish` calls it)."""

    def take_outbox(self) -> List[Tuple[int, Message]]:
        """Atomically claim everything buffered so far (no awaits here —
        callers snapshot before their first suspension point)."""
        batch = self.outbox[:]
        self.outbox.clear()
        return batch


class PeerLink:
    """One outbound lane to another broker: bounded queue + writer task.

    The TCP connection is opened lazily on the first frame and re-opened
    after failures.  Peer links are one-directional by design — broker A's
    frames to B ride A's outbound connection, B's frames to A ride B's —
    which keeps the hello handshake trivial and frame ordering per
    direction obvious.

    **Coalesced drains.**  Each writer wake-up claims *everything* queued
    (up to the queue bound) and transmits it as one buffered write + one
    drain, so a burst of N frames costs one syscall instead of N.  Queue
    order is preserved, the bounded queue still backpressures producers,
    and a send failure accounts every frame of the failed batch as
    dropped (quiesce arithmetic must not wait for them).

    **Metering.**  Bandwidth is charged here, per frame actually written:
    the payload length ``send_many`` reports times the overlay path length
    — the simulator's rule, without a second encode to learn the size.
    """

    def __init__(self, runtime: "BrokerRuntime", peer_id: int,
                 address: Tuple[str, int], queue_frames: int):
        self.runtime = runtime
        self.peer_id = peer_id
        self.address = address
        self.path_length = runtime.topology.path_length(runtime.broker_id, peer_id)
        self.queue: "asyncio.Queue[Message]" = asyncio.Queue(maxsize=queue_frames)
        #: frames claimed by the writer but not yet on the wire — an abrupt
        #: kill must count them as dropped (they left the queue already).
        self.inflight = 0
        self._stale = False
        self._conn: Optional[FrameConnection] = None
        self._task: Optional[asyncio.Task] = None

    def update_address(self, address: Tuple[str, int]) -> None:
        """Re-point the lane at a restarted peer's fresh port.

        The peer's old incarnation is gone, so any live connection is a
        dead socket (or soon will be); mark it stale and let the writer
        drop it before the next batch instead of waiting for the slower
        EOF detection path.
        """
        address = tuple(address)
        if address == self.address:
            return
        self.address = address
        self._stale = True

    async def enqueue(self, message: Message) -> None:
        """Queue one frame, blocking (and counting a stall) when full."""
        if self._task is None:
            self._task = asyncio.create_task(self._writer_loop())
        if self.queue.full():
            self.runtime.metrics.record_stall()
        await self.queue.put(message)
        self.runtime.frames_enqueued += 1

    async def _writer_loop(self) -> None:
        while True:
            batch = [await self.queue.get()]
            # Claim whatever else is already queued — no waiting, order
            # preserved — so one drain moves the whole burst.
            while not self.queue.empty():
                batch.append(self.queue.get_nowait())
            self.inflight = len(batch)
            try:
                conn = self._conn
                if conn is not None and (self._stale or conn.peer_closed()):
                    # Either the peer shut its end (it never writes on
                    # this one-way lane, so EOF is a pure death signal) or
                    # the cluster re-published a fresh address for a
                    # restarted peer.  Do not write into the dead socket;
                    # reconnect instead.
                    await conn.close()
                    conn = self._conn = None
                self._stale = False
                if conn is None:
                    conn = self._conn = await self._connect()
                sizes = await conn.send_many(batch)
                metrics = self.runtime.metrics
                for size in sizes:
                    metrics.record(
                        self.runtime.broker_id, self.peer_id, size, self.path_length
                    )
                metrics.record_coalesced_write(len(batch))
            except (ConnectionError, OSError, CodecError) as exc:
                # TCP is reliable while up; a failure means the peer is
                # down.  Count the losses (quiesce arithmetic must not
                # wait for frames that will never be processed) and drop
                # the connection so the next batch retries from scratch.
                log.warning("peer %d send failed: %s", self.peer_id, exc)
                self.runtime.metrics.record_send_failure()
                self.runtime.frames_dropped += len(batch)
                self.inflight = 0  # already accounted; a kill must not re-count
                self._conn = None
                # Reliability: let the router steer around the dead peer.
                # EVENT searches re-route to the next unexamined broker and
                # NOTIFY losses are counted; summary traffic is left to the
                # delta fallback, which resyncs the chain on reconnect.
                rerouted = False
                for message in batch:
                    if self.runtime.router.handle_send_failure(
                        self.runtime.broker_id, self.peer_id, message
                    ):
                        rerouted = True
                if rerouted:
                    await self.runtime._pump()
            finally:
                self.inflight = 0
                for _ in batch:
                    self.queue.task_done()

    async def _connect(self) -> FrameConnection:
        reader, writer = await asyncio.open_connection(*self.address)
        conn = FrameConnection(
            reader, writer, self.runtime.message_codec, self.runtime.max_frame_bytes
        )
        await conn.send(HelloMessage(role=ROLE_PEER, identity=self.runtime.broker_id))
        return conn

    async def flush(self) -> None:
        """Wait until every queued frame has been written to the socket."""
        await self.queue.join()

    async def close(self) -> None:
        if self._task is not None:
            self._task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._task
            self._task = None
        if self._conn is not None:
            await self._conn.close()
            self._conn = None


class ClientSession:
    """Server-side state of one producer/subscriber connection."""

    _session_ids = itertools.count(1)

    def __init__(self, runtime: "BrokerRuntime", conn: FrameConnection,
                 role: int, identity: int):
        self.runtime = runtime
        self.conn = conn
        self.role = role
        self.identity = identity
        self.session_id = next(self._session_ids)
        #: Subscription ids registered on this connection (NOTIFY targets).
        self.sids: Set[SubscriptionId] = set()
        self.queue: "asyncio.Queue[Message]" = asyncio.Queue(
            maxsize=runtime.queue_frames
        )
        self._task = asyncio.create_task(self._writer_loop())

    async def enqueue(self, message: Message) -> None:
        if self.queue.full():
            self.runtime.metrics.record_stall()
        await self.queue.put(message)

    async def _writer_loop(self) -> None:
        while True:
            batch = [await self.queue.get()]
            while not self.queue.empty():
                batch.append(self.queue.get_nowait())
            try:
                await self.conn.send_many(batch)
                self.runtime.metrics.record_coalesced_write(len(batch))
            except (ConnectionError, OSError):
                pass  # reader side notices the death and tears us down
            finally:
                for _ in batch:
                    self.queue.task_done()

    async def flush(self) -> None:
        await self.queue.join()

    async def close(self) -> None:
        self._task.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await self._task
        await self.conn.close()

    def __repr__(self) -> str:
        kind = {ROLE_PRODUCER: "producer", ROLE_SUBSCRIBER: "subscriber"}.get(
            self.role, "peer?"
        )
        return f"ClientSession({kind} #{self.session_id}, {len(self.sids)} sids)"


class BrokerRuntime:
    """One live broker: TCP server + engines + outbox pump + drain."""

    def __init__(
        self,
        broker_id: int,
        topology: Topology,
        schema: Schema,
        *,
        precision: Precision = Precision.COARSE,
        value_width: ValueWidth = ValueWidth.F64,
        max_subscriptions: int = DEFAULT_MAX_SUBSCRIPTIONS,
        matcher: str = "compiled",
        dedup_capacity: int = 4096,
        propagation_policy: TargetPolicy = TargetPolicy.HIGHEST_DEGREE,
        propagation_mode: str = "delta",
        suppress_covered: bool = True,
        period_interval: Optional[float] = None,
        queue_frames: int = DEFAULT_QUEUE_FRAMES,
        batch_frames: int = DEFAULT_BATCH_FRAMES,
        snapshot_dir: Optional[str] = None,
        host: str = "127.0.0.1",
        max_frame_bytes: int = MAX_FRAME_BYTES,
        tracer=None,
        paranoid: Optional[bool] = None,
        epoch: Optional[int] = None,
    ):
        if broker_id not in topology.brokers:
            raise ValueError(f"broker {broker_id} is not in the topology")
        self.broker_id = broker_id
        self.topology = topology
        self.schema = schema
        self.policy = propagation_policy
        if propagation_mode not in PROPAGATION_MODES:
            raise ValueError(
                f"unknown propagation mode {propagation_mode!r}; expected "
                f"one of {PROPAGATION_MODES}"
            )
        #: ``"delta"`` ships per-period :class:`SummaryDeltaMessage` frames
        #: (adds + removals, per-link generation chaining, full-summary
        #: fallback on a broken chain); ``"full"`` is the original
        #: :class:`SummaryMessage`-per-period path.
        self.propagation_mode = propagation_mode
        self.period_interval = period_interval
        self.queue_frames = queue_frames
        if batch_frames < 1:
            raise ValueError("batch_frames must be >= 1")
        #: Cap on one inbound dispatch batch (frames per burst).
        self.batch_frames = batch_frames
        self.snapshot_dir = Path(snapshot_dir) if snapshot_dir is not None else None
        self.host = host
        self.max_frame_bytes = max_frame_bytes
        #: Live systems default to F64 wire values: unlike the simulator's
        #: bandwidth-accounting F32 default, live frames *are* the system
        #: state, and F32 rounding of range bounds would change matching.
        self.value_width = value_width
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.paranoid = paranoid_enabled() if paranoid is None else bool(paranoid)
        self.auditor: Optional[SummaryAuditor] = (
            SummaryAuditor(schema) if self.paranoid else None
        )

        self.id_codec = IdCodec(
            num_brokers=topology.num_brokers,
            max_subscriptions=max_subscriptions,
            num_attributes=len(schema),
        )
        self.wire = WireCodec(schema, self.id_codec, value_width)
        self.message_codec = MessageCodec(self.wire)

        self.metrics = NetworkMetrics()
        self.network = RuntimeNetwork(topology)

        self.broker = SummaryBroker(
            broker_id,
            schema,
            precision,
            on_delivery=self._on_delivery,
            matcher=matcher,
            dedup_capacity=dedup_capacity,
            max_subscriptions=max_subscriptions,
            suppress_covered=suppress_covered,
        )
        self.broker.tracer = self.tracer
        self.broker.paranoid = self.paranoid
        self.router = EventRouter(self.network, {broker_id: self.broker}, epoch=epoch)
        self.router.tracer = self.tracer
        #: ``audit_dedup`` expects a system-shaped object with ``brokers``.
        self._audit_scope = SimpleNamespace(brokers={broker_id: self.broker})

        self._peer_addresses: Dict[int, Tuple[str, int]] = {}
        self._links: Dict[int, PeerLink] = {}
        self._sessions: Set[ClientSession] = set()
        self._sid_sessions: Dict[SubscriptionId, ClientSession] = {}
        #: Undelivered NOTIFYs as ``(session, event, sids)``; ``sids`` grows
        #: while the entry is its session's newest (see :meth:`_on_delivery`).
        self._client_outbox: List[Tuple[ClientSession, Event, List[SubscriptionId]]] = []
        self._open_notifies: Dict[ClientSession, Tuple] = {}
        self._reader_tasks: Set[asyncio.Task] = set()
        self._server: Optional[asyncio.AbstractServer] = None
        self._period_task: Optional[asyncio.Task] = None
        self.port: Optional[int] = None
        self.periods_run = 0
        # -- delta-mode fallback statistics (mirrors PropagationEngine) --
        self.fallback_requests = 0
        self.fallback_replies = 0

        # -- quiesce arithmetic (LocalCluster barriers) --
        #: broker-to-broker frames put on outbound peer queues.
        self.frames_enqueued = 0
        #: broker-to-broker frames received, dispatched AND re-pumped.
        self.frames_processed = 0
        #: frames abandoned because the peer was unreachable.
        self.frames_dropped = 0

        self._shutdown_started = False
        self._snapshot_written: Optional[Path] = None
        self.terminated = asyncio.Event()
        self._open_period()

    # -- lifecycle -------------------------------------------------------------

    async def start(self, port: int = 0) -> int:
        """Bind and listen; returns the (possibly ephemeral) bound port."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.period_interval:
            self._period_task = asyncio.create_task(self._period_loop())
        return self.port

    def set_peers(self, addresses: Dict[int, Tuple[str, int]]) -> None:
        """Learn where the other brokers listen (own entry ignored).

        Re-publishing an updated map also re-points any *existing* lane at
        the new address: a broker restarted on an ephemeral port would
        otherwise be dialled at its dead old port forever (the lazy
        reconnect used to assume addresses never change).
        """
        for peer, address in addresses.items():
            if peer != self.broker_id:
                self._peer_addresses[peer] = tuple(address)
                link = self._links.get(peer)
                if link is not None:
                    link.update_address(tuple(address))

    def install_signal_handlers(
        self, signals: Tuple[int, ...] = (signal.SIGTERM, signal.SIGINT)
    ) -> None:
        """SIGTERM/SIGINT trigger a graceful drain-and-snapshot shutdown."""
        loop = asyncio.get_running_loop()
        for signum in signals:
            loop.add_signal_handler(signum, self._signal_shutdown)

    def _signal_shutdown(self) -> None:
        if not self._shutdown_started:
            asyncio.get_running_loop().create_task(self.shutdown(drain=True))

    async def shutdown(self, drain: bool = True) -> Optional[Path]:
        """Stop the broker; with ``drain`` flush queues and snapshot.

        Returns the snapshot path when one was written.  Draining order:
        stop accepting → let in-flight inbound frames finish → flush every
        peer/client outbound queue → fold the open period into the kept
        summary → atomic snapshot.  A second call waits for the first.
        """
        if self._shutdown_started:
            await self.terminated.wait()
            return self._snapshot_written
        self._shutdown_started = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._period_task is not None:
            self._period_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._period_task
        if drain:
            await self._settle_inbound()
            for link in list(self._links.values()):
                await link.flush()
            for session in list(self._sessions):
                await session.flush()
            self.period_close()
            if self.snapshot_dir is not None:
                self._snapshot_written = save_broker(
                    self.broker, self.snapshot_dir, self.wire
                )
        readers = list(self._reader_tasks)
        for task in readers:
            task.cancel()
        if readers:
            await asyncio.gather(*readers, return_exceptions=True)
        for link in list(self._links.values()):
            await link.close()
        for session in list(self._sessions):
            await session.close()
        self._sessions.clear()
        self.terminated.set()
        return self._snapshot_written

    async def kill(self) -> None:
        """Abrupt crash: no drain, no snapshot, sockets torn mid-frame.

        The chaos harness' model of ``kill -9``: stop listening, cancel
        the period loop and every reader/writer task where they stand (a
        writer suspended inside ``send_many`` leaves a torn frame on the
        wire for the peer's codec to reject), and account every frame
        still queued or in flight as dropped so cluster-level quiesce
        arithmetic does not wait for work that died with the process.
        """
        if self._shutdown_started:
            await self.terminated.wait()
            return
        self._shutdown_started = True
        if self._server is not None:
            self._server.close()
            with contextlib.suppress(ConnectionError, OSError):
                await self._server.wait_closed()
        if self._period_task is not None:
            self._period_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._period_task
        readers = list(self._reader_tasks)
        for task in readers:
            task.cancel()
        if readers:
            await asyncio.gather(*readers, return_exceptions=True)
        for link in list(self._links.values()):
            # Claimed-but-unwritten frames died with the writer task; the
            # queue backlog never even reached a socket.
            self.frames_dropped += link.queue.qsize() + link.inflight
            await link.close()
        for session in list(self._sessions):
            with contextlib.suppress(ConnectionError, OSError):
                await session.close()
        self._sessions.clear()
        self.terminated.set()

    async def _settle_inbound(self) -> None:
        """Wait until the inbound frame counter stops moving (all frames
        already on the wire have been dispatched and pumped)."""
        previous, stable = -1, 0
        while stable < 2:
            await asyncio.sleep(0.02)
            current = self.frames_processed
            stable = stable + 1 if current == previous else 0
            previous = current

    # -- the outbox pump -------------------------------------------------------

    async def _pump(self) -> None:
        """Move everything the engines buffered onto real queues.

        The snapshot of both outboxes happens before the first ``await``:
        once this coroutine suspends (a full queue exercising
        backpressure), newly buffered sends belong to whichever handler
        produced them and will be pumped by *its* call.
        """
        peer_batch = self.network.take_outbox()
        client_batch = self._client_outbox[:]
        self._client_outbox.clear()
        self._open_notifies.clear()
        for dst, message in peer_batch:
            if dst not in self._peer_addresses:
                # Standalone runtime (tests, single-broker tooling): the
                # engine addressed a peer nobody wired up.  Drop the frame
                # before it is ever enqueued — it never enters the
                # enqueued/processed quiesce arithmetic.
                log.warning(
                    "broker %d dropping frame for peer %d (no address; "
                    "set_peers not called)",
                    self.broker_id,
                    dst,
                )
                continue
            await self._link(dst).enqueue(message)
        for session, event, sids in client_batch:
            await session.enqueue(NotifyMessage(event=event, matched=frozenset(sids)))

    def _link(self, peer: int) -> PeerLink:
        link = self._links.get(peer)
        if link is None:
            address = self._peer_addresses.get(peer)
            if address is None:
                raise RuntimeError(
                    f"broker {self.broker_id} has no address for peer {peer} "
                    f"(set_peers not called?)"
                )
            link = self._links[peer] = PeerLink(self, peer, address, self.queue_frames)
        return link

    def _on_delivery(self, broker_id: int, sid: SubscriptionId, event: Event) -> None:
        """Broker → consumer hand-off: buffer the delivery for the owning
        session (ids with no live session — e.g. restored from a snapshot —
        stay visible in ``broker.deliveries``).

        One publish's deliveries arrive as one run in ascending sid order
        (:meth:`SummaryBroker.deliver`), so a sid joins its session's newest
        entry when that entry holds the same event object and a smaller
        sid; anything else — another event, or the same object published
        again — opens a new entry.  Each entry leaves as one NOTIFY.
        """
        session = self._sid_sessions.get(sid)
        if session is None:
            return
        entry = self._open_notifies.get(session)
        if entry is not None and entry[1] is event and entry[2][-1] < sid:
            entry[2].append(sid)
            return
        entry = self._open_notifies[session] = (session, event, [sid])
        self._client_outbox.append(entry)

    # -- inbound connections ---------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._reader_tasks.add(task)
        conn = FrameConnection(reader, writer, self.message_codec, self.max_frame_bytes)
        try:
            hello = await conn.recv()
            if hello is None:
                return
            if not isinstance(hello, HelloMessage):
                raise CodecError(
                    f"expected HELLO as the first frame, got "
                    f"{type(hello).__name__}"
                )
            if hello.role == ROLE_PEER:
                await self._serve_peer(conn, hello.identity)
            else:
                await self._serve_client(conn, hello)
        except (CodecError, SchemaError) as exc:
            log.warning("broker %d dropping connection: %s", self.broker_id, exc)
        except (ConnectionError, OSError):
            pass  # unceremonious peer death
        except asyncio.CancelledError:
            # Shutdown cancels reader tasks mid-recv; completing normally
            # (instead of re-raising) keeps asyncio.streams' internal
            # connection_made callback from logging spurious errors.
            pass
        finally:
            self._reader_tasks.discard(task)
            await conn.close()

    async def _serve_peer(self, conn: FrameConnection, peer_id: int) -> None:
        while True:
            burst = await conn.recv_burst(self.batch_frames)
            if not burst:
                return
            # Contiguous EVENT runs are dispatched as one batch (the
            # compiled matcher's ``match_many`` hot path); SUMMARY and
            # NOTIFY frames break the run so cross-kind ordering — an
            # EVENT must see exactly the kept summary that preceded it on
            # the wire — is byte-for-byte what a frame-at-a-time loop
            # would have produced.
            index, total = 0, len(burst)
            while index < total:
                message = burst[index]
                if isinstance(message, EventMessage):
                    end = index + 1
                    while end < total and isinstance(burst[end], EventMessage):
                        end += 1
                    items = [
                        (m.event, m.brocli, m.publish_id)
                        for m in burst[index:end]
                    ]
                    await self._process_burst(items)
                    index = end
                else:
                    self._dispatch_peer(peer_id, message)
                    index += 1
            await self._pump()
            # Counted only after the dispatch *and* the pump: a processed
            # frame's downstream sends are already on their queues, so
            # cluster-wide enqueued == processed means true quiescence.
            self.frames_processed += total

    def _dispatch_peer(self, src: int, message: Message) -> None:
        """Same engines, same decisions as the simulator's dispatch."""
        if isinstance(message, SummaryMessage):
            # Snapshot-safe absorb: a fallback resync reply may land between
            # periods (restarts shift who is mid-period when).
            self.broker.absorb_summary_snapshot(
                src, message.summary, set(message.merged_brokers)
            )
            return
        if isinstance(message, SummaryDeltaMessage):
            applied = self.broker.absorb_delta(
                src,
                message.adds,
                set(message.removed),
                set(message.merged_brokers),
                message.base_generation,
                message.generation,
            )
            if not applied:
                if self.broker.delta_summary is None:
                    # A stale period frame flushed through a reconnected
                    # link landed between periods (e.g. queued while the
                    # peer was down, delivered to its new incarnation).
                    # Drop it: the chain is now desynced on both ends, so
                    # the next in-period delta fails the base-generation
                    # check and runs the regular fallback resync.
                    return
                # Chain broke (peer restart, our restore, frame loss): ask
                # for a full summary instead of merging a stale delta.  The
                # request rides the outbox and is pumped with this burst.
                self.fallback_requests += 1
                if self.tracer.enabled:
                    self.tracer.record(
                        "delta_rejected", broker=self.broker_id,
                        trace_id=self.periods_run + 1, src=src,
                        base_generation=message.base_generation,
                    )
                self.network.send(
                    self.broker_id, src,
                    SummaryRequestMessage(generation=message.generation),
                )
            return
        if isinstance(message, SummaryRequestMessage):
            # A live-path rejection means the requester genuinely lost its
            # chain state (restart/restore), so the resync snapshot is the
            # *whole* current knowledge — kept plus the open delta.  (The
            # simulator replies with the period delta only because its
            # rejections are always mid-period among brokers that kept
            # their state; here the period never closes for outsiders.)
            broker = self.broker
            snapshot = broker.kept_summary.copy()
            if broker.delta_summary is not None:  # requests can land between periods
                snapshot.merge(broker.delta_summary)
            broker.link_generations_out[src] = 0
            self.fallback_replies += 1
            self.network.send(
                self.broker_id, src,
                SummaryMessage(
                    summary=snapshot,
                    merged_brokers=frozenset(
                        broker.merged_brokers | broker.delta_brokers
                    ),
                ),
            )
            return
        if self.router.handle_message(self.broker_id, src, message):
            return
        raise CodecError(f"unhandled peer message {type(message).__name__}")

    async def _serve_client(self, conn: FrameConnection, hello: HelloMessage) -> None:
        session = ClientSession(self, conn, hello.role, hello.identity)
        self._sessions.add(session)
        try:
            while True:
                burst = await conn.recv_burst(self.batch_frames)
                if not burst:
                    return
                # Publish bursts batch through the compiled matcher; any
                # other frame (SUB/UNSUB/PING) breaks the run so request
                # ordering — and the PING completion barrier — holds.
                index, total = 0, len(burst)
                while index < total:
                    message = burst[index]
                    if isinstance(message, EventMessage):
                        end = index + 1
                        while end < total and isinstance(burst[end], EventMessage):
                            end += 1
                        await self._handle_publish_burst(
                            [m.event for m in burst[index:end]]
                        )
                        index = end
                    else:
                        await self._handle_client_frame(session, message)
                        index += 1
        finally:
            self._sessions.discard(session)
            # Subscriptions survive the disconnect (durable, snapshot-able);
            # only the NOTIFY routing to this dead session stops.
            for sid in session.sids:
                self._sid_sessions.pop(sid, None)
            await session.close()

    async def _handle_publish_burst(self, events: List) -> None:
        """PUB burst: the ingress broker mints the real publish ids and
        runs Algorithm 3's first hop for the whole burst in one batched
        summary check; forwards ride the pump."""
        for event in events:
            self.schema.validate_event(event)
        await self._publish_events(events)
        if self.auditor is not None:
            self.auditor.audit_dedup(self._audit_scope)
        await self._pump()

    # -- data-plane seams (overridden by ShardedBrokerRuntime) -----------------

    async def _process_burst(
        self, items: List[Tuple[Event, FrozenSet[int], int]]
    ) -> None:
        """Run Algorithm 3 over one contiguous EVENT run from a peer.

        The single-process hot path dispatches inline; the sharded runtime
        overrides this to fan step 1 (the summary match) out to worker
        processes.  Awaiting here never reorders frames of one connection
        — `_serve_peer` finishes the whole burst before its next recv —
        but frames of *other* connections may interleave at the await,
        which is a serialization a frame-at-a-time loop could also have
        produced.
        """
        self.metrics.record_match_batch(len(items))
        self.router.process_batch(self.broker, items)

    async def _publish_events(self, events: List[Event]) -> None:
        """Mint ids and run the ingress hop for one validated PUB burst."""
        self.metrics.record_match_batch(len(events))
        self.router.publish_batch(self.broker_id, events)

    async def _handle_client_frame(self, session: ClientSession, message: Message) -> None:
        if isinstance(message, EventMessage):
            # Single-frame publish (reached when a caller dispatches
            # outside `_serve_client`'s burst loop): same path, burst of 1.
            await self._handle_publish_burst([message.event])
        elif isinstance(message, SubscribeMessage):
            try:
                sid = self.broker.subscribe(message.subscription)
            except (IdSpaceExhausted, SchemaError, ValueError) as exc:
                reply = SubAckMessage(
                    request_id=message.request_id, sid=None,
                    error=str(exc) or type(exc).__name__,
                )
            else:
                session.sids.add(sid)
                self._sid_sessions[sid] = session
                reply = SubAckMessage(request_id=message.request_id, sid=sid)
            await session.enqueue(reply)
        elif isinstance(message, UnsubscribeMessage):
            if self.broker.unsubscribe(message.sid):
                session.sids.discard(message.sid)
                self._sid_sessions.pop(message.sid, None)
                if self.auditor is not None:
                    self.auditor.assert_clean(self.broker)
                reply = SubAckMessage(request_id=message.request_id, sid=message.sid)
            else:
                reply = SubAckMessage(
                    request_id=message.request_id, sid=None,
                    error=f"unknown subscription {message.sid}",
                )
            await session.enqueue(reply)
        elif isinstance(message, PingMessage):
            # The PONG rides the session queue *behind* pending NOTIFYs:
            # in-order processing makes it a completion barrier.
            await session.enqueue(PongMessage(token=message.token))
        else:
            raise CodecError(f"unexpected client frame {type(message).__name__}")

    # -- propagation periods ---------------------------------------------------

    def _open_period(self) -> None:
        """(Re)open the always-live period: an empty delta ready to absorb
        peer summaries whenever they arrive."""
        broker = self.broker
        broker.delta_summary = BrokerSummary(broker.schema, broker.precision)
        broker.delta_brokers = {broker.broker_id}
        broker.contacted = set()
        # Same removal bookkeeping as SummaryBroker.begin_period: snapshot
        # (without clearing) the queued removals into this period's scratch
        # and reopen the one-send-per-period window.
        broker.delta_removed = set(broker.removed_pending)
        broker.period_acted = False

    async def period_act(self) -> Optional[int]:
        """This broker's one Algorithm-2 transmission for the period:
        fold the pending batch into the delta, pick the target with the
        shared policy, send delta + Merged_Brokers.  Returns the target
        (None when no eligible neighbor remains)."""
        broker = self.broker
        for sid, subscription in broker.pending:
            broker.delta_summary.add(subscription, sid)
        broker.pending = []
        target = select_period_target(self.topology, broker, self.policy)
        # The send opportunity for this period has now passed (even with no
        # eligible target): later unsubscribes queue for the next period.
        broker.period_acted = True
        if target is not None:
            broker.contacted.add(target)
            if self.tracer.enabled:
                self.tracer.record(
                    "summary_send", broker=self.broker_id,
                    trace_id=self.periods_run + 1, target=target,
                    merged_brokers=len(broker.delta_brokers),
                )
            if self.propagation_mode == "delta":
                base = broker.link_generations_out.get(target, 0)
                generation = base + 1
                broker.link_generations_out[target] = generation
                message: Message = SummaryDeltaMessage(
                    adds=broker.delta_summary.copy(),
                    removed=frozenset(broker.delta_removed),
                    merged_brokers=frozenset(broker.delta_brokers),
                    base_generation=base,
                    generation=generation,
                )
            else:
                message = SummaryMessage(
                    summary=broker.delta_summary.copy(),
                    merged_brokers=frozenset(broker.delta_brokers),
                )
                # A full frame restarts the chain towards this neighbor.
                broker.link_generations_out[target] = 0
            self.network.send(self.broker_id, target, message)
        await self._pump()
        return target

    def period_close(self) -> None:
        """Fold the period's delta into the kept summary and reopen.

        Deliberately *not* :meth:`SummaryBroker.finish_period`: that
        clears ``pending``, and subscriptions accepted after this period's
        act must survive into the next one."""
        broker = self.broker
        broker.kept_summary.merge(broker.delta_summary)
        broker.merged_brokers |= broker.delta_brokers
        # Removals (own + peers' delta blocks) apply after the merge, same
        # order as SummaryBroker.finish_period; what this period shipped is
        # no longer pending for the next one.
        for sid in broker.delta_removed:
            broker.kept_summary.remove(sid)
        broker.removed_pending -= broker.delta_removed
        self._open_period()
        self.periods_run += 1
        if self.auditor is not None:
            self.auditor.assert_clean(broker)

    async def _period_loop(self) -> None:
        """Uncoordinated timer mode for standalone brokers."""
        while True:
            await asyncio.sleep(self.period_interval)
            await self.period_act()
            self.period_close()

    # -- observability ---------------------------------------------------------

    def collect_metrics(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        self.metrics.contribute(registry, "runtime.network")
        registry.gauge("runtime.frames_enqueued").set(self.frames_enqueued)
        registry.gauge("runtime.frames_processed").set(self.frames_processed)
        registry.gauge("runtime.frames_dropped").set(self.frames_dropped)
        registry.gauge("runtime.periods_run").set(self.periods_run)
        registry.gauge("runtime.fallback_requests").set(self.fallback_requests)
        registry.gauge("runtime.fallback_replies").set(self.fallback_replies)
        registry.gauge("runtime.client_sessions").set(len(self._sessions))
        registry.gauge("runtime.subscriptions").set(len(self.broker.store))
        registry.gauge("runtime.batch_size").set(self.metrics.batch_size)
        return registry

    def __repr__(self) -> str:
        return (
            f"BrokerRuntime(id={self.broker_id}, port={self.port}, "
            f"subs={len(self.broker.store)}, periods={self.periods_run})"
        )


# -- CLI ------------------------------------------------------------------------


def parse_peers(text: str) -> Dict[int, Tuple[str, int]]:
    """Parse ``"1=127.0.0.1:7001,2=127.0.0.1:7002"`` into an address map."""
    addresses: Dict[int, Tuple[str, int]] = {}
    for chunk in filter(None, (part.strip() for part in text.split(","))):
        broker_text, _, addr = chunk.partition("=")
        host, _, port = addr.rpartition(":")
        if not (broker_text.isdigit() and host and port.isdigit()):
            raise ValueError(f"bad peer spec {chunk!r} (want id=host:port)")
        addresses[int(broker_text)] = (host, int(port))
    return addresses


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-broker",
        description="Run one live summary broker (see repro.runtime).",
    )
    parser.add_argument("--broker-id", type=int, required=True)
    parser.add_argument("--topology", default="cw24",
                        help="cw24 | tree13 | line<N> | star<N> | scalefree<N>")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="listen port (0 = ephemeral, printed on stdout)")
    parser.add_argument("--peers", default="",
                        help="comma-separated id=host:port of the other brokers")
    parser.add_argument("--snapshot-dir", default=None,
                        help="directory for the graceful-drain snapshot")
    parser.add_argument("--period-interval", type=float, default=0.0,
                        help="seconds between timer-driven propagation acts "
                             "(0 = only explicit/cluster-driven periods)")
    parser.add_argument("--matcher", choices=("reference", "compiled"),
                        default="compiled",
                        help="event-matching engine (default: compiled — the "
                             "batched fast path; 'reference' is deprecated on "
                             "the live path and kept for debugging)")
    parser.add_argument("--precision", choices=("coarse", "exact"),
                        default="coarse")
    parser.add_argument("--propagation-mode", choices=PROPAGATION_MODES,
                        default="delta",
                        help="summary propagation framing (default: delta — "
                             "incremental frames with full-summary fallback; "
                             "'full' re-ships the whole period summary)")
    parser.add_argument("--queue-frames", type=int, default=DEFAULT_QUEUE_FRAMES)
    parser.add_argument("--batch-frames", type=int, default=DEFAULT_BATCH_FRAMES,
                        help="max frames per inbound dispatch batch")
    parser.add_argument("--paranoid", action="store_true",
                        help="run the summary auditor after every period")
    parser.add_argument("--shards", type=int, default=1,
                        help="worker processes for the match hot path "
                             "(1 = single-process; N > 1 boots the sharded "
                             "runtime, one CompiledMatcher per worker)")
    return parser


def warn_reference_matcher(prog: str) -> None:
    """Deprecation note for explicitly selecting the reference matcher on
    the live path (it remains the simulator/figure-reproduction engine)."""
    print(
        f"{prog}: warning: '--matcher reference' on the live runtime is "
        f"deprecated — it matches one event at a time and will not keep up "
        f"under load; the compiled engine is semantically identical "
        f"(differential-tested) and now the default.",
        file=sys.stderr,
        flush=True,
    )


async def _serve(args: argparse.Namespace) -> None:
    if args.shards > 1:
        # Deferred import: sharded builds on this module.
        from repro.runtime.sharded import ShardedBrokerRuntime

        runtime_cls, extra = ShardedBrokerRuntime, {"shards": args.shards}
    else:
        runtime_cls, extra = BrokerRuntime, {}
    runtime = runtime_cls(
        args.broker_id,
        named_topology(args.topology),
        stock_schema(),
        precision=Precision(args.precision),
        matcher=args.matcher,
        propagation_mode=args.propagation_mode,
        period_interval=args.period_interval or None,
        queue_frames=args.queue_frames,
        batch_frames=args.batch_frames,
        snapshot_dir=args.snapshot_dir,
        host=args.host,
        paranoid=True if args.paranoid else None,
        # Every OS process is a fresh incarnation: without an explicit
        # epoch the process-wide counter would hand each standalone broker
        # epoch 1, and a cold-rejoined broker would re-mint publish ids
        # that surviving peers' dedup tables eat as duplicates.
        epoch=allocate_epoch(args.snapshot_dir, args.broker_id),
        **extra,
    )
    port = await runtime.start(args.port)
    runtime.set_peers(parse_peers(args.peers))
    runtime.install_signal_handlers()
    print(f"broker {args.broker_id} listening on {args.host}:{port}", flush=True)
    await runtime.terminated.wait()
    if runtime.snapshot_dir is not None:
        print(f"broker {args.broker_id} drained to {runtime.snapshot_dir}", flush=True)


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.matcher == "reference":
        warn_reference_matcher("repro-broker")
    try:
        asyncio.run(_serve(args))
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
