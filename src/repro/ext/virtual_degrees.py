"""Virtual degrees — load balancing for event processing (paper section 6).

Algorithm 3 always forwards an event to the *highest-degree* broker not yet
in BROCLI, so the maximum-degree hubs sit on every event's forwarding chain
and become hotspots.  The paper's ongoing-work remedy: "we employ 'virtual
degrees' for the maximum-degree nodes, reducing their load, while
continuing, however, to offer significant improvements" — trading a little
event-processing time for load distribution.

Implementation: the router ranks candidate brokers by a per-event *virtual*
degree instead of the real one.  Brokers whose real degree is within
``tolerance`` of the best remaining candidate form the hub class for that
decision, and a deterministic per-event rotation (a hash of the event and
the candidate id) picks among them.  Different events therefore start their
search at different hubs of the same class; because same-class hubs hold
different merged-summary clusters the chain can lengthen slightly — exactly
the trade-off the paper describes.  ``benchmarks/test_ablation_virtual_degrees.py``
quantifies both sides.
"""

from __future__ import annotations

import hashlib
from typing import Dict, FrozenSet

from repro.broker.routing import EventRouter
from repro.broker.system import SummaryPubSub
from repro.model.events import Event

__all__ = ["VirtualDegreeRouter", "enable_virtual_degrees", "hub_load_spread"]


class VirtualDegreeRouter(EventRouter):
    """An :class:`EventRouter` with per-event hub rotation."""

    def __init__(self, network, brokers, tolerance: int = 1):
        super().__init__(network, brokers)
        if tolerance < 0:
            raise ValueError("tolerance must be non-negative")
        self.tolerance = tolerance

    def _next_router(
        self, brocli: FrozenSet[int], origin: int, event: Event
    ) -> int:
        topology = self.network.topology
        remaining = [b for b in topology.brokers if b not in brocli]
        assert remaining, "caller guarantees BROCLI is incomplete"
        best_degree = max(topology.degree(b) for b in remaining)
        hub_class = [
            b for b in remaining if topology.degree(b) >= best_degree - self.tolerance
        ]
        key = _event_key(event)
        return max(hub_class, key=lambda b: (_rotation(key, b), -b))


def _event_key(event: Event) -> bytes:
    digest = hashlib.blake2b(digest_size=8)
    for name, _type, value in sorted(event.items()):
        digest.update(name.encode())
        digest.update(repr(value).encode())
    return digest.digest()


def _rotation(key: bytes, broker: int) -> int:
    digest = hashlib.blake2b(key, digest_size=4, salt=broker.to_bytes(8, "big"))
    return int.from_bytes(digest.digest(), "big")


def enable_virtual_degrees(system: SummaryPubSub, tolerance: int = 1) -> SummaryPubSub:
    """Swap a system's router for the virtual-degree variant, in place."""
    system.router = VirtualDegreeRouter(system.network, system.brokers, tolerance)
    return system


def hub_load_spread(system: SummaryPubSub) -> Dict[int, int]:
    """Events examined per broker — the hotspot metric the extension
    targets (compare ``max(...)`` across routers)."""
    return {
        broker_id: broker.events_examined
        for broker_id, broker in system.brokers.items()
    }
