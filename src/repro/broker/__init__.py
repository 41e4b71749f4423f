"""The summary-centric broker system (paper sections 3-4)."""

from repro.broker.broker import DeliveryCallback, SummaryBroker
from repro.broker.core import BrokerCore
from repro.broker.persistence import SnapshotCodec, load_system, save_system
from repro.broker.propagation import PropagationEngine
from repro.broker.routing import EventRouter
from repro.broker.system import Delivery, PublishResult, SummaryPubSub

__all__ = [
    "BrokerCore",
    "Delivery",
    "SnapshotCodec",
    "load_system",
    "save_system",
    "DeliveryCallback",
    "EventRouter",
    "PropagationEngine",
    "PublishResult",
    "SummaryBroker",
    "SummaryPubSub",
]
