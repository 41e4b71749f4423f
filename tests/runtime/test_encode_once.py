"""One event-body encode per publish, counted on a live cluster.

Algorithm 3 forwards an event unchanged, so no hop after the producer has
a reason to serialize it again: the ingress forwards the PUB bytes, the
hub's NOTIFY carries the EVENT bytes it received, and the home broker's
NOTIFY to the sink carries the hub's bytes.  This gate counts event-body
encodes — :meth:`WireCodec.encode_event` calls that did not hand back the
bytes the event arrived in — with no clock involved.
"""

import asyncio

from repro.model import Event, parse_subscription, stock_schema
from repro.network import Topology
from repro.runtime.cluster import LocalCluster
from repro.wire.codec import WireCodec

SCHEMA = stock_schema()
EVENTS = [Event.of(symbol="OTE", price=8.0 + i / 100, volume=i) for i in range(40)]


def test_each_publish_encodes_its_event_once(monkeypatch):
    encodes = []
    encode_event = WireCodec.encode_event

    def counting(self, event):
        payload = encode_event(self, event)
        origin = getattr(event, "_origin", None)
        if origin is None or origin[0] is not self or payload is not origin[1]:
            encodes.append(event)
        return payload

    monkeypatch.setattr(WireCodec, "encode_event", counting)

    async def body():
        cluster = LocalCluster(Topology.line(3), SCHEMA)
        await cluster.start()
        try:
            subscriber = await cluster.subscriber(2)
            sid = await subscriber.subscribe(parse_subscription(SCHEMA, "symbol = OTE"))
            await cluster.run_propagation_period()
            producer = await cluster.producer(0)
            before = len(encodes)
            await producer.publish_many(EVENTS)
            await cluster.settle()
            return sid, len(encodes) - before, list(subscriber.deliveries)
        finally:
            await cluster.stop(drain=False)

    sid, count, deliveries = asyncio.run(body())
    assert sorted(deliveries, key=lambda d: d[1].value("volume")) == [
        (sid, event) for event in EVENTS
    ]
    assert count == len(EVENTS)
