"""Locality-aware event routing for federated overlays.

The federation experiment (`repro-experiments federation`) shows the
asymmetry of the base algorithms on a multi-ISP overlay: Algorithm 2's
propagation crosses the scarce peering links sparingly, but Algorithm 3's
BROCLI forwarding jumps to the *globally* highest-degree unexamined
broker, bouncing the event across ISPs and paying the multi-link peering
path each time.

:class:`LocalityRouter` fixes the forwarding rule with one change:
among unexamined brokers, prefer those in the forwarding broker's own ISP
(highest degree within it); only when the local ISP is exhausted does the
search jump to another ISP — once, to its best hub, after which the
search stays inside *that* ISP, and so on.  Owner notifications are
unchanged (they must reach whatever ISP the owner lives in), so the
savings show up in the EVENT-message share of inter-ISP bytes.

Correctness is untouched: the search still visits brokers until BROCLI is
complete, only in a different order.
"""

from __future__ import annotations

from typing import FrozenSet

from repro.broker.routing import EventRouter
from repro.broker.system import SummaryPubSub
from repro.model.events import Event
from repro.network.federation import Federation

__all__ = ["LocalityRouter", "enable_locality"]


class LocalityRouter(EventRouter):
    """Algorithm 3 with exhaust-the-local-ISP-first forwarding."""

    def __init__(self, network, brokers, federation: Federation):
        super().__init__(network, brokers)
        self.federation = federation

    def _next_router(
        self, brocli: FrozenSet[int], origin: int, event: Event
    ) -> int:
        topology = self.network.topology
        remaining = [b for b in topology.brokers if b not in brocli]
        assert remaining, "caller guarantees BROCLI is incomplete"
        home = self.federation.isp_of(origin)
        local = [b for b in remaining if self.federation.isp_of(b) == home]
        candidates = local if local else remaining
        return max(candidates, key=lambda b: (topology.degree(b), -b))


def enable_locality(system: SummaryPubSub, federation: Federation) -> SummaryPubSub:
    """Swap a system's router for the locality-aware variant, in place."""
    system.router = LocalityRouter(system.network, system.brokers, federation)
    return system
