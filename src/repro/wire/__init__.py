"""Binary wire formats — bandwidth is measured on real encoded bytes."""

from repro.wire.codec import ByteReader, ByteWriter, CodecError, ValueWidth, WireCodec
from repro.wire.messages import (
    AckMessage,
    AdvertisementMessage,
    EventMessage,
    Message,
    MessageCodec,
    MessageKind,
    NotifyMessage,
    ReliableDataMessage,
    SubscriptionBatchMessage,
    SummaryMessage,
)

__all__ = [
    "AckMessage",
    "AdvertisementMessage",
    "ByteReader",
    "ByteWriter",
    "CodecError",
    "EventMessage",
    "Message",
    "MessageCodec",
    "MessageKind",
    "NotifyMessage",
    "ReliableDataMessage",
    "SubscriptionBatchMessage",
    "SummaryMessage",
    "ValueWidth",
    "WireCodec",
]
