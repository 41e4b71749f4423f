"""The load generator: one process, one thread, two measured connections.

A :class:`ProducerSession` to the ingress broker and a
:class:`SubscriberSession` to the home broker (the sink).  Two more
subscriber sessions exist during set-up only, to give the ingress broker
and the hub their resident subscriptions; they are closed before
anything is measured (subscriptions are durable across disconnect), so
those residents keep costing match and recheck while every NOTIFY the
generator has to read comes from the sink.

Flow control and timing both hang on *markers*: the last sequence number
of every 64-event chunk is an event only the sink's marker subscription
matches.  Links are FIFO and brokers process frames in order, so a
marker's arrival proves its whole chunk was matched and routed by every
broker on the path.
"""

from __future__ import annotations

import asyncio
import gc
import statistics
import time
from collections import deque
from typing import Dict, List, Optional, Tuple

from benchmarks.perf.cluster import PERIOD_INTERVAL, Cluster
from benchmarks.perf.oracle import Delivery, Ledger, check_deliveries
from benchmarks.perf.stats import completed_by, percentile
from benchmarks.perf.windows import (
    Window, WindowRecorder, median_over, quiet_windows, reduce_each,
)
from benchmarks.perf.workloads import BROKERS, CHUNK, HOME, INGRESS, Inputs
from repro.model.ids import IdCodec, SubscriptionId
from repro.model.schema import stock_schema
from repro.model.subscriptions import Subscription
from repro.runtime.client import ProducerSession, SubscriberSession, SubscribeError
from repro.runtime.server import DEFAULT_MAX_SUBSCRIPTIONS
from repro.wire.codec import ValueWidth, WireCodec
from repro.wire.messages import MessageCodec

__all__ = ["LoadGenerator", "WINDOW_CHUNKS"]

HOST = "127.0.0.1"
#: Chunks that may be un-acknowledged by marker arrival (256 events).
WINDOW_CHUNKS = 4
WARMUP_CHUNKS = 5
PACED_TICK = 0.005
SUBSCRIBE_PIPELINE = 128
REQUEST_TIMEOUT = 10.0
DRAIN_TIMEOUT = 20.0
CHURN_LIFETIME = 2.0
IDLE_PROBES = 16
#: A paced phase whose generator ran later than this (p99) did not offer
#: the load it claims; its latencies are reported but the run is invalid.
MAX_LATE_P99_MS = 20.0

_clock = time.perf_counter


def client_codec() -> MessageCodec:
    """The codec a ``repro-broker`` process builds for ``line3``."""
    schema = stock_schema()
    ids = IdCodec(
        num_brokers=len(BROKERS), max_subscriptions=DEFAULT_MAX_SUBSCRIPTIONS,
        num_attributes=len(schema),
    )
    return MessageCodec(WireCodec(schema, ids, ValueWidth.F64))


class LoadGenerator:
    def __init__(self, inputs: Inputs, cluster: Cluster, ledger: Ledger):
        self.inputs = inputs
        self.cluster = cluster
        self.ledger = ledger
        self.codec = client_codec()
        self.producer: Optional[ProducerSession] = None
        self.sink: Optional[SubscriberSession] = None
        #: every sid the sink ever registered -> its predicate
        self.subscriptions: Dict[SubscriptionId, Subscription] = {}
        self.resident_sids: List[SubscriptionId] = []
        self.marker_sid: Optional[SubscriptionId] = None
        self.deliveries: List[Delivery] = []
        #: Canaries take sequence numbers -1, -2, ...; the run's events 0, 1, ...
        self.canaries_sent = 0
        self.next_seq = 0
        self.markers_sent = 0
        self.marker_arrivals: List[float] = []
        self._progress = asyncio.Event()
        self._canary = asyncio.Event()
        self.request_seconds: List[float] = []
        self._churn_requests: List[asyncio.Task] = []

    # -- the sink ------------------------------------------------------------------

    def _on_notify(self, sid: SubscriptionId, event) -> None:
        now = _clock()
        self.deliveries.append((sid, event, now))
        if sid == self.marker_sid:
            if event.value("when") < 0:
                self._canary.set()
            else:
                self.marker_arrivals.append(now)
                self._progress.set()

    @property
    def outstanding(self) -> int:
        return self.markers_sent - len(self.marker_arrivals)

    async def _await_window(self, limit: int) -> None:
        """Block while more than ``limit`` chunks are un-acknowledged."""
        deadline = _clock() + DRAIN_TIMEOUT
        while self.outstanding > limit:
            self._progress.clear()
            self.cluster.check_alive()
            try:
                await asyncio.wait_for(self._progress.wait(), 1.0)
            except asyncio.TimeoutError:
                if _clock() > deadline:
                    raise TimeoutError(
                        f"{self.outstanding} chunks un-acknowledged after "
                        f"{DRAIN_TIMEOUT}s: events were lost between brokers"
                    ) from None

    async def _publish(self, count: int) -> None:
        first = self.next_seq
        self.next_seq += count
        last = self.next_seq
        self.markers_sent += last // CHUNK - first // CHUNK
        await self.producer.publish_many(
            [self.inputs.sent(seq) for seq in range(first, last)]
        )

    # -- requests -------------------------------------------------------------------

    async def _request(self, coroutine, what: str):
        """One SUB/UNSUB round trip, timed and entered in the ledger."""
        started = _clock()
        try:
            result = await asyncio.wait_for(coroutine, REQUEST_TIMEOUT)
        except (SubscribeError, asyncio.TimeoutError, ConnectionError) as exc:
            self.ledger.record_request(False, f"{what}: {exc!r}")
            return None
        self.request_seconds.append(_clock() - started)
        self.ledger.record_request(True)
        return result

    async def _load(self, session: SubscriberSession,
                    subscriptions: List[Subscription]) -> List[SubscriptionId]:
        """Register a population, ``SUBSCRIBE_PIPELINE`` requests in flight."""
        sids: List[SubscriptionId] = []
        for at in range(0, len(subscriptions), SUBSCRIBE_PIPELINE):
            batch = subscriptions[at:at + SUBSCRIBE_PIPELINE]
            acks = await asyncio.gather(*(
                asyncio.wait_for(session.subscribe(sub), REQUEST_TIMEOUT)
                for sub in batch
            ), return_exceptions=True)
            for sub, ack in zip(batch, acks):
                ok = not isinstance(ack, BaseException)
                self.ledger.record_request(ok, f"resident subscribe: {ack!r}")
                if ok:
                    sids.append(ack)
        return sids

    # -- set-up ---------------------------------------------------------------------

    async def set_up(self) -> None:
        """Connect, load every broker's residents, prove with a canary
        that the sink's summary reached the hub."""
        ports = self.cluster.ports
        self.producer = await ProducerSession.connect(HOST, ports[INGRESS], self.codec)
        self.sink = await SubscriberSession.connect(HOST, ports[HOME], self.codec)
        self.sink.on_notify = self._on_notify
        loaders = {
            broker: await SubscriberSession.connect(HOST, ports[broker], self.codec)
            for broker in BROKERS if broker != HOME
        }
        residents = self.inputs.residents
        try:
            loaded = await asyncio.gather(
                self._load(self.sink, residents[HOME]),
                *(self._load(loaders[b], residents[b]) for b in loaders),
            )
            self.resident_sids = loaded[0]
            self.subscriptions.update(zip(self.resident_sids, residents[HOME]))
            self.marker_sid = await self._request(
                self.sink.subscribe(self.inputs.marker_subscription), "marker subscribe"
            )
            if self.marker_sid is None or len(self.resident_sids) != len(residents[HOME]):
                raise RuntimeError(f"set-up subscriptions failed: {self.ledger.examples}")
            loaded_at = _clock()
            while not self._canary.is_set():
                self.cluster.check_alive()
                self.canaries_sent += 1
                await self.producer.publish(self.inputs.sent(-self.canaries_sent))
                await asyncio.sleep(0.05)
            # The canary proves the sink's period ran; every other leaf's
            # timer has the same interval, so one interval after the last
            # resident was acknowledged each has shipped its population.
            await asyncio.sleep(max(0.0, loaded_at + PERIOD_INTERVAL + 0.1 - _clock()))
        finally:
            for session in loaders.values():
                await session.close()

    async def close(self) -> None:
        for session in (self.producer, self.sink):
            if session is not None:
                await session.close()

    async def idle_probes(self) -> None:
        """Subscribe/unsubscribe round trips on an idle system, one at a
        time: what one request costs with the whole frontier resident."""
        probe = self.inputs.probe_subscription
        for _ in range(IDLE_PROBES):
            sid = await self._request(self.sink.subscribe(probe), "probe subscribe")
            if sid is not None:
                await self._request(self.sink.unsubscribe(sid), "probe unsubscribe")

    async def warm_up(self) -> None:
        """Fill caches and lazy state on both sides, then take the
        generator's collector out of the measurement: what is live now is
        frozen, and nothing the phases allocate is cyclic garbage worth a
        pause (the brokers, being the system under test, keep theirs)."""
        for _ in range(WARMUP_CHUNKS):
            await self._publish(CHUNK)
            await self._await_window(0)
        gc.collect()
        gc.freeze()
        gc.disable()

    # -- measured phases --------------------------------------------------------------

    async def capacity_phase(self, seconds: float) -> Dict[str, float]:
        """Closed loop: as fast as ``WINDOW_CHUNKS`` un-acknowledged
        chunks allow."""
        own_before = time.process_time()
        acked_before = len(self.marker_arrivals)
        recorder = WindowRecorder(self.cluster, seconds)
        started = _clock()
        while _clock() - started < seconds or recorder.wants_more():
            recorder.tick()
            await self._await_window(WINDOW_CHUNKS - 1)
            await self._publish(CHUNK)
            await asyncio.sleep(0)  # give the sink's reader a turn
        windows = recorder.close()
        await self._await_window(0)
        own_cpu = time.process_time() - own_before
        arrivals = self.marker_arrivals[acked_before:]
        kept, quiet = quiet_windows(windows, recorder.needed)

        def routed(window: Window) -> float:
            return (completed_by(arrivals, CHUNK, started, window.end)
                    - completed_by(arrivals, CHUNK, started, window.start))

        routed_in_kept = sum(routed(window) for window in kept)
        per_broker = {
            broker: sum(w.broker_cpu[broker] for w in kept) * 1e6 / routed_in_kept
            for broker in BROKERS
        }
        return {
            "events": len(arrivals) * CHUNK,
            "capacity_windows": len(windows),
            "capacity_windows_kept": len(kept),
            "capacity_quiet": quiet,
            "capacity_by_window": [
                {"steal_share": w.steal_share,
                 "throughput_evps": routed(w) / (w.end - w.start),
                 "cpu_us_per_event": sum(w.broker_cpu.values()) * 1e6 / max(1.0, routed(w))}
                for w in windows
            ],
            "throughput_evps": statistics.median(
                routed(window) / (window.end - window.start) for window in kept
            ),
            "cpu_us_per_event": sum(per_broker.values()),
            "bottleneck_cpu_us_per_event": max(per_broker.values()),
            "cpu_us_per_event_by_broker": per_broker,
            "loadgen.cpu_us_per_event": own_cpu * 1e6 / (len(arrivals) * CHUNK),
        }

    async def paced_phase(self, seconds: float, rate: float) -> Dict[str, float]:
        """Open loop at ``rate`` events/s in ``PACED_TICK`` steps; every
        event is timed from the moment it was due, sent or not."""
        first_seq = self.next_seq
        nominal = int(seconds * rate)
        recorder = WindowRecorder(self.cluster, seconds)
        started = _clock() + PACED_TICK
        lateness: List[float] = []
        sent, extend = 0, False
        while sent < nominal or extend:
            recorder.tick()
            due = int((_clock() - started) * rate) + 1
            if due > nominal:
                extend = recorder.wants_more()
                if not extend:
                    due = nominal
            if due > sent:
                await self._publish(due - sent)
                written = _clock()
                lateness.extend(
                    written - (started + index / rate) for index in range(sent, due)
                )
                sent = due
            tick = int((_clock() - started) / PACED_TICK) + 1
            await asyncio.sleep(max(0.0, started + tick * PACED_TICK - _clock()))
        total = sent
        windows = recorder.close()
        kept, quiet = quiet_windows(windows, recorder.needed)
        # Not timed: fill the open chunk so a marker closes the phase.
        await self._publish(-self.next_seq % CHUNK)
        await self._await_window(0)
        self.paced = (first_seq, total, started, rate, kept, windows)
        last_due = started + total / rate
        due_in_kept = sum(
            rate * max(0.0, min(w.end, last_due) - max(w.start, started)) for w in kept
        )
        late_p99_ms = percentile(lateness, 0.99) * 1e3
        return {
            "paced_events": self.next_seq - first_seq,
            "paced_windows": len(windows),
            "paced_windows_kept": len(kept),
            "paced_quiet": quiet,
            "paced_cpu_us_per_event": sum(
                sum(w.broker_cpu.values()) for w in kept
            ) * 1e6 / due_in_kept,
            "loadgen.late_p99_ms": late_p99_ms,
            "late_ok": late_p99_ms <= MAX_LATE_P99_MS,
        }

    # -- churn ----------------------------------------------------------------------

    async def churn(self, ops_per_s: int, stop: asyncio.Event) -> None:
        """Open-loop subscribe/unsubscribe at the sink: even ticks add a
        subscription, odd ticks retire the oldest one past its lifetime.
        Requests are not awaited in line — a slow broker gets no relief."""
        interval = 1.0 / ops_per_s
        live: deque = deque()
        started = _clock()
        tick = 0
        while not stop.is_set():
            if tick % 2 == 0:
                self._churn_requests.append(
                    asyncio.create_task(self._churn_subscribe(tick // 2, live))
                )
            elif live and _clock() - live[0][1] >= CHURN_LIFETIME:
                sid, _born = live.popleft()
                self._churn_requests.append(asyncio.create_task(
                    self._request(self.sink.unsubscribe(sid), "churn unsubscribe")
                ))
            tick += 1
            await asyncio.sleep(max(0.0, started + tick * interval - _clock()))
        await asyncio.gather(*self._churn_requests)

    async def _churn_subscribe(self, index: int, live: deque) -> None:
        subscription = self.inputs.churn_subscription(index)
        sid = await self._request(self.sink.subscribe(subscription), "churn subscribe")
        if sid is not None:
            self.subscriptions[sid] = subscription
            live.append((sid, _clock()))

    # -- results --------------------------------------------------------------------

    def verify(self) -> Dict[str, float]:
        """Oracle pass over everything the sink received, then the paced
        phase's latencies (due time -> first NOTIFY of that event)."""
        first_arrival = check_deliveries(
            self.ledger, self.deliveries, self.subscriptions, self.resident_sids,
            self.inputs.sent, range(-self.canaries_sent, self.next_seq),
            skip={self.marker_sid},
        )
        first_seq, total, started, rate, windows, all_windows = self.paced
        samples: List[Tuple[float, float]] = []
        for index in range(total):
            arrived = first_arrival.get(first_seq + index)
            if arrived is not None:
                due = started + index / rate
                samples.append((due, (arrived - due) * 1e3))
        return {
            "latency_samples": len(samples),
            "latency_p50_ms": median_over(windows, samples, statistics.median),
            "latency_p99_ms": median_over(
                windows, samples, lambda values: percentile(values, 0.99)),
            "paced_by_window": [
                {"steal_share": window.steal_share, "latency_p50_ms": p50}
                for window, p50 in zip(
                    all_windows, reduce_each(all_windows, samples, statistics.median))
            ],
            "deliveries": len(self.deliveries),
            "clients.sub_ack_p50_ms": statistics.median(self.request_seconds) * 1e3,
        }
