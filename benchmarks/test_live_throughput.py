"""Live-runtime soak: a no-deadlock, no-drop smoke test for the in-process
cluster.

>=10k publishes go through a 4-broker TCP cluster whose brokers all share
one event loop.  The soak asserts that it finishes, drops no frame and
delivers, and prints events/sec plus the p50/p99 publish->notify pipeline
latency taken from the shared :class:`~repro.obs.tracing.Tracer` (the
router records a ``publish`` span at the origin broker and a ``notify``
event at each consumer, keyed by the cluster-unique publish id).

The printed numbers are a report, not a gate: brokers sharing one loop,
one heap and one collector are not how the system is deployed.  The
throughput figures the docs cite come from the multi-process ledger in
``benchmarks/perf`` (see ``benchmarks/perf/README.md``).

**Publish model: windowed concurrent producers.**  One producer task per
broker, each alternating ``publish_many(CHUNK)`` with a ``flush()``
barrier every ``WINDOW`` chunks, which bounds cluster-wide in-flight work
to roughly ``brokers * WINDOW * CHUNK`` events.

Run directly (not part of tier-1)::

    PYTHONPATH=src python -m pytest benchmarks/test_live_throughput.py -s
"""

import asyncio
import time

import pytest

from repro.network import Topology
from repro.obs.tracing import Tracer
from repro.runtime.cluster import LocalCluster
from repro.workload.stocks import StockWorkload

EVENTS = 10_000
CHUNK = 64  # events per publish_many burst (one coalesced client write)
WINDOW = 1  # chunks in flight per producer before a flush barrier
SUBS_PER_BROKER = 8
SEED = 42
SOAK_TIMEOUT = 300.0  # the no-deadlock guarantee, enforced hard


def percentile(sorted_values, fraction):
    index = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return sorted_values[index]


def run_soak(tracer: Tracer):
    """The windowed-producer soak body; returns ``(elapsed, notified,
    metrics, dropped)``."""
    topology = Topology.line(4)
    workload = StockWorkload(seed=SEED)

    async def soak():
        cluster = LocalCluster(topology, workload.schema, tracer=tracer)
        await cluster.start()
        try:
            for broker_id in topology.brokers:
                subscriber = await cluster.subscriber(broker_id)
                for _ in range(SUBS_PER_BROKER):
                    await subscriber.subscribe(workload.subscription())
            await cluster.run_propagation_period()

            producers = [await cluster.producer(b) for b in topology.brokers]
            # Pre-generate the chunks (workload RNG off the clock) and deal
            # them round-robin so every broker ingests an equal share.
            lanes = [[] for _ in producers]
            sent = 0
            lane = 0
            while sent < EVENTS:
                chunk = workload.ticks(min(CHUNK, EVENTS - sent))
                lanes[lane % len(lanes)].append(chunk)
                sent += len(chunk)
                lane += 1

            async def run_producer(producer, chunks):
                pending = 0
                for chunk in chunks:
                    await producer.publish_many(chunk)
                    pending += 1
                    if pending >= WINDOW:
                        await producer.flush()
                        pending = 0
                await producer.flush()

            started = time.perf_counter()
            await asyncio.gather(
                *(run_producer(p, c) for p, c in zip(producers, lanes))
            )
            await cluster.settle()
            elapsed = time.perf_counter() - started
            notified = sum(len(s.deliveries) for s in cluster._subscribers)
            metrics = cluster.metrics()
            dropped = sum(r.frames_dropped for r in cluster.runtimes.values())
            return elapsed, notified, metrics, dropped
        finally:
            await cluster.stop(drain=False)

    async def with_deadline():
        return await asyncio.wait_for(soak(), SOAK_TIMEOUT)

    return asyncio.run(with_deadline())


def pipeline_latencies_ms(tracer: Tracer):
    """publish->notify latencies from the shared tracer, validated."""
    publish_starts = {
        span.trace_id: span.t_us for span in tracer.spans_of("publish")
    }
    notify_records = tracer.spans_of("notify")
    assert len(publish_starts) == EVENTS, "a publish vanished"
    assert all(
        record.trace_id in publish_starts for record in notify_records
    ), "orphan notify: no matching publish span"
    # One notify record per (broker, event); ``notified`` counts per-sid
    # hand-offs, so it is at least as large.
    return sorted(
        (record.t_us - publish_starts[record.trace_id]) / 1000.0
        for record in notify_records
    )


def soak_and_report(label: str) -> None:
    """Run one soak, assert it was clean, print the report."""
    tracer = Tracer()
    elapsed, notified, metrics, dropped = run_soak(tracer)
    latencies_ms = pipeline_latencies_ms(tracer)
    assert notified >= len(latencies_ms) > 0, "soak matched nothing"
    assert latencies_ms[0] >= 0.0
    assert dropped == 0, "live soak dropped frames"
    print(
        f"\n{label}: {EVENTS} publishes over 4 brokers in {elapsed:.2f}s = "
        f"{EVENTS / elapsed:,.0f} events/sec; {notified} notifications; "
        f"publish->notify latency p50={percentile(latencies_ms, 0.50):.3f}ms "
        f"p99={percentile(latencies_ms, 0.99):.3f}ms; "
        f"{metrics.backpressure_stalls} backpressure stalls"
    )


@pytest.mark.slow
def test_soak_10k_publishes_4_brokers():
    soak_and_report("live soak")

