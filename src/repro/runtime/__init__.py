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

from importlib import import_module

#: Exported name -> the submodule that defines it.  Imported on first
#: access (PEP 562), so ``python -m repro.runtime.server`` does not find
#: its own module already imported by the package.
_EXPORTS = {
    "ChaosController": "chaos",
    "run_scenario_live": "chaos",
    "ProducerSession": "client",
    "SubscriberSession": "client",
    "SubscribeError": "client",
    "LocalCluster": "cluster",
    "FrameAssembler": "framing",
    "FrameConnection": "framing",
    "LENGTH_BYTES": "framing",
    "MAX_FRAME_BYTES": "framing",
    "encode_frame": "framing",
    "read_frame": "framing",
    "write_frame": "framing",
    "BrokerRuntime": "server",
    "ClientSession": "server",
    "DEFAULT_QUEUE_FRAMES": "server",
    "PeerLink": "server",
    "RuntimeNetwork": "server",
    "named_topology": "server",
}


def __getattr__(name: str) -> object:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


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
