"""``repro.runtime.server`` with span recorders around its layer boundaries.

Usage: ``traced_broker.py --trace-out FILE <repro-broker arguments>``.  The
entry points listed in :func:`install` are wrapped, then
``repro.runtime.server.main`` runs with the remaining arguments, so a
traced broker is the same process, topology and inputs as a plain one.

A span is (name, start, end, parent).  One stack serves the whole
process: the broker is a single asyncio thread, so between a span's start
and end only the task that opened it runs — provided spans of coroutines
are cut at every suspension, which :class:`_SteppedCoroutine` does (a span
segment per ``send``; time parked in a full queue belongs to nobody).
Self time is duration minus the durations of direct children.  Spans are
timed on the thread's CPU clock, not the wall clock: the brokers and the
generator share two cores, and a wall-clock span would also count the
time its process sat descheduled, so the layers could never sum to the
process CPU the end-to-end budget is stated in.

Aggregates are cumulative.  ``SIGUSR1`` appends a snapshot of them (with
the runtime's own ``collect_metrics()`` and the process CPU clock) to the
list of marks, so the harness can difference any two moments; the marks
and a 1-in-64 sample of raw spans are written once ``main`` returns.
"""

from __future__ import annotations

import asyncio
import functools
import json
import signal
import sys
import time
from typing import Callable, Dict, List, Optional

SAMPLE_EVERY = 64
SAMPLE_LIMIT = 50_000

_clock = time.thread_time_ns


class Recorder:
    """Span stack, per-name aggregates, counters, marks."""

    def __init__(self) -> None:
        #: open spans, innermost last: [child_ns, name]
        self.stack: List[list] = []
        #: name -> [calls, self_ns]
        self.spans: Dict[str, List[int]] = {}
        self.counters: Dict[str, int] = {}
        self.samples: List[tuple] = []
        self.marks: List[dict] = []
        self.runtime = None
        self._seen = 0

    def aggregate(self, name: str) -> List[int]:
        return self.spans.setdefault(name, [0, 0])

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def close(self, frame: list, aggregate: List[int], start: int) -> None:
        """End the innermost span: credit its self time, charge its
        duration to the parent, keep every 64th as a raw sample."""
        end = _clock()
        stack = self.stack
        stack.pop()
        duration = end - start
        parent = None
        if stack:
            stack[-1][0] += duration
            parent = stack[-1][1]
        aggregate[1] += duration - frame[0]
        self._seen += 1
        if not self._seen % SAMPLE_EVERY and len(self.samples) < SAMPLE_LIMIT:
            self.samples.append((frame[1], start, end, parent))

    def mark(self) -> None:
        runtime_metrics = {}
        if self.runtime is not None:
            runtime_metrics = {
                name: value
                for name, value in self.runtime.collect_metrics().snapshot().items()
                if isinstance(value, (int, float))
            }
        self.marks.append({
            "cpu_s": time.process_time(),
            "spans": {name: list(agg) for name, agg in self.spans.items()},
            "counters": dict(self.counters),
            "runtime": runtime_metrics,
        })

    def dump(self, path: str) -> None:
        self.mark()
        with open(path, "w") as handle:
            json.dump({"marks": self.marks, "samples": self.samples}, handle)


def traced(recorder: Recorder, name: str, fn: Callable,
           observe: Optional[Callable] = None) -> Callable:
    """Wrap a synchronous function in a span; ``observe(recorder, args,
    result)`` may count what went in and came out."""
    aggregate = recorder.aggregate(name)
    stack = recorder.stack

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = [0, name]
        stack.append(frame)
        aggregate[0] += 1
        start = _clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(frame, aggregate, start)
        if observe is not None:
            observe(recorder, args, result)
        return result

    return wrapper


class _SteppedCoroutine:
    """Awaitable that drives ``coro`` and records one span segment per
    step, so time the coroutine spends suspended is not its own."""

    def __init__(self, recorder: Recorder, name: str, aggregate: List[int], coro):
        self._recorder, self._name, self._aggregate = recorder, name, aggregate
        self._coro = coro

    def __await__(self):
        recorder, aggregate = self._recorder, self._aggregate
        stack = recorder.stack
        inner = self._coro.__await__()
        resume, thrown = inner.send, None
        value = None
        aggregate[0] += 1
        while True:
            frame = [0, self._name]
            stack.append(frame)
            start = _clock()
            try:
                yielded = inner.throw(thrown) if thrown is not None else resume(value)
            except StopIteration as stop:
                return stop.value
            finally:
                recorder.close(frame, aggregate, start)
            try:
                value, thrown = (yield yielded), None
            except BaseException as exc:  # cancellation: hand it to the coroutine
                value, thrown = None, exc


def traced_async(recorder: Recorder, name: str, fn: Callable) -> Callable:
    aggregate = recorder.aggregate(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return _SteppedCoroutine(recorder, name, aggregate, fn(*args, **kwargs))

    return wrapper


# -- what each boundary counts ---------------------------------------------------


def _observe_feed(recorder, args, frames):
    recorder.count("framing.feeds")
    recorder.count("framing.frames", len(frames))


def _observe_recheck(recorder, args, confirmed):
    recorder.count("recheck.candidates", len(args[2]))
    recorder.count("recheck.confirmed", len(confirmed))


def install(recorder: Recorder) -> None:
    """Patch the layer boundaries in place (class attributes, so every
    instance the server builds afterwards is traced)."""
    from repro.broker.broker import SummaryBroker
    from repro.broker.routing import EventRouter
    from repro.model.schema import Schema
    from repro.runtime.framing import FrameAssembler, FrameConnection
    from repro.runtime.server import BrokerRuntime
    from repro.summary.compiled import CompiledMatcher
    from repro.summary.maintenance import SubscriptionStore
    from repro.wire.messages import (
        EventMessage, MessageCodec, NotifyMessage, SummaryDeltaMessage,
        SummaryMessage,
    )

    def sync(cls, attribute, name, observe=None):
        setattr(cls, attribute, traced(recorder, name, getattr(cls, attribute), observe))

    def stepped(cls, attribute, name):
        setattr(cls, attribute, traced_async(recorder, name, getattr(cls, attribute)))

    def count_batches(cls, attribute):
        """Dispatch-batch sizes, read off the argument; no span (the
        router span inside is the work)."""
        fn = getattr(cls, attribute)

        @functools.wraps(fn)
        def wrapper(self, items):
            recorder.count("server.batches")
            recorder.count("server.batched_events", len(items))
            return fn(self, items)

        setattr(cls, attribute, wrapper)

    sync(FrameAssembler, "feed", "runtime.framing.feed", _observe_feed)
    stepped(FrameConnection, "recv_burst", "runtime.framing.recv")
    stepped(FrameConnection, "send_many", "runtime.framing.send")
    sync(MessageCodec, "decode", "wire.decode")
    sync(Schema, "validate_event", "model.validate")
    sync(SummaryBroker, "match_kept_many", "summary.match")
    # ``match_many`` recompiles through ``_compile`` directly; the public
    # ``refresh`` is not on the live path, so the private one is the seam.
    sync(CompiledMatcher, "_compile", "summary.compile")
    for entry in ("publish_batch", "process_batch", "handle_message"):
        sync(EventRouter, entry, "broker.routing.route")
    sync(SummaryBroker, "deliver", "broker.deliver")
    sync(SubscriptionStore, "recheck", "broker.recheck", _observe_recheck)
    sync(SummaryBroker, "subscribe", "broker.subscribe")
    sync(SummaryBroker, "unsubscribe", "broker.unsubscribe")
    sync(SummaryBroker, "absorb_delta", "broker.propagation.absorb")
    sync(BrokerRuntime, "period_close", "broker.propagation.period")
    stepped(BrokerRuntime, "period_act", "broker.propagation.period")
    stepped(BrokerRuntime, "_pump", "runtime.server.pump")
    count_batches(BrokerRuntime, "_publish_events")
    count_batches(BrokerRuntime, "_process_burst")

    # ``size`` meters bytes by encoding; the encode it triggers is its own
    # cost (the writer's later encode of the same frame is a memo hit), so
    # an encode under a size span is counted but not given a span.
    encode = MessageCodec.encode
    traced_encode = traced(recorder, "wire.encode", encode)
    stack = recorder.stack

    def encode_or_metered(self, message):
        recorder.count("wire.encode_calls")
        if stack and stack[-1][1] == "wire.size":
            return encode(self, message)
        return traced_encode(self, message)

    MessageCodec.encode = encode_or_metered

    def observe_size(recorder, args, size):
        message = args[1]
        if isinstance(message, EventMessage):
            recorder.count("routing.forwards")
        elif isinstance(message, NotifyMessage):
            recorder.count("routing.notify_frames")
        elif isinstance(message, (SummaryDeltaMessage, SummaryMessage)):
            recorder.count("propagation.frames")
            recorder.count("propagation.bytes", size)

    sync(MessageCodec, "size", "wire.size", observe_size)

    start = BrokerRuntime.start

    @functools.wraps(start)
    async def start_and_listen_for_marks(self, *args, **kwargs):
        recorder.runtime = self
        asyncio.get_running_loop().add_signal_handler(signal.SIGUSR1, recorder.mark)
        return await start(self, *args, **kwargs)

    BrokerRuntime.start = start_and_listen_for_marks


def main(argv: List[str]) -> int:
    if len(argv) < 2 or argv[0] != "--trace-out":
        print(__doc__, file=sys.stderr)
        return 2
    recorder = Recorder()
    install(recorder)
    from repro.runtime import server

    try:
        return server.main(argv[2:])
    finally:
        recorder.dump(argv[1])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
