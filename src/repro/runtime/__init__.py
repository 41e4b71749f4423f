"""Live asyncio runtime: the paper's system on real TCP sockets.

The simulator (:mod:`repro.network`, :mod:`repro.broker`) proves the
algorithms and reproduces the figures; this package runs the *same*
engine code — the same :class:`~repro.broker.routing.EventRouter`, the
same propagation target policy, the same
:class:`~repro.wire.messages.MessageCodec` bytes — behind real brokers:

* :mod:`repro.runtime.framing` — length-prefixed frame protocol
  (u32 length + one encoded message) with hard size caps;
* :mod:`repro.runtime.server` — :class:`BrokerRuntime`, one live broker
  with bounded-queue backpressure and graceful drain-to-snapshot;
* :mod:`repro.runtime.client` — producer/subscriber sessions with the
  PING/PONG completion barrier;
* :mod:`repro.runtime.cluster` — :class:`LocalCluster`, a whole overlay
  on localhost ports with simulator-faithful coordinated periods.

Console entry points: ``repro-broker`` (one broker) and ``repro-cluster``
(a demo overlay).  See docs/architecture.md section 7 for the live-vs-
simulated contract and ``tests/runtime/test_parity.py`` for the proof
that both substrates deliver identical event sets.
"""

from repro.runtime.chaos import ChaosController, run_scenario_live
from repro.runtime.client import ProducerSession, SubscriberSession, SubscribeError
from repro.runtime.cluster import LocalCluster
from repro.runtime.framing import (
    FrameAssembler,
    FrameConnection,
    LENGTH_BYTES,
    MAX_FRAME_BYTES,
    encode_frame,
    read_frame,
    write_frame,
)
from repro.runtime.server import (
    BrokerRuntime,
    ClientSession,
    DEFAULT_QUEUE_FRAMES,
    PeerLink,
    RuntimeNetwork,
    named_topology,
)

__all__ = [
    "BrokerRuntime",
    "ChaosController",
    "ClientSession",
    "DEFAULT_QUEUE_FRAMES",
    "FrameAssembler",
    "FrameConnection",
    "LENGTH_BYTES",
    "LocalCluster",
    "MAX_FRAME_BYTES",
    "PeerLink",
    "ProducerSession",
    "RuntimeNetwork",
    "SubscribeError",
    "SubscriberSession",
    "encode_frame",
    "named_topology",
    "read_frame",
    "run_scenario_live",
    "write_frame",
]
