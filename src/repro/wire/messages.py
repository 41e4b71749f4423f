"""Typed broker-to-broker messages and their wire encoding.

Everything a broker sends to another broker in any of the three systems
(summary-based, Siena-style, broadcast baseline) is one of these messages.
The simulator charges ``MessageCodec.size(message)`` bytes per link
traversal, so bandwidth figures come from real encodings:

* :class:`SummaryMessage` — a (multi-broker) subscription summary plus its
  ``Merged_Brokers`` set (Algorithm 2 payload).
* :class:`SubscriptionBatchMessage` — raw subscriptions with their ids
  (what Siena and the broadcast baseline propagate).
* :class:`EventMessage` — an event plus its ``BROCLI`` broker-check-list
  (Algorithm 3 payload; Siena/baseline send an empty BROCLI).
* :class:`NotifyMessage` — an event delivered to the owning broker along
  with the subscription ids it matched (Algorithm 1, step 3).

The reliability layer (:mod:`repro.network.reliable`) adds two transport
frames so its overhead is charged in real bytes like everything else:

* :class:`ReliableDataMessage` — any of the above wrapped with a transfer
  id the receiver must acknowledge (the varint id is the per-message
  header cost of reliable delivery).
* :class:`AckMessage` — the acknowledgement for one transfer id.

The live runtime (:mod:`repro.runtime`) speaks the same codec over real TCP
connections and adds a small client/peer control plane:

* :class:`HelloMessage` — the mandatory first frame on every connection,
  naming the peer's role (:data:`ROLE_PEER` with its broker id, or
  :data:`ROLE_PRODUCER` / :data:`ROLE_SUBSCRIBER` for client sessions).
* :class:`SubscribeMessage` / :class:`UnsubscribeMessage` — a subscriber
  session's SUB frames, correlated by a client-chosen ``request_id``.
* :class:`SubAckMessage` — the broker's reply carrying the minted
  :class:`~repro.model.ids.SubscriptionId` (or an error string).
* :class:`PingMessage` / :class:`PongMessage` — an in-order barrier: a PONG
  proves every frame the client sent before the PING has been processed,
  and every NOTIFY queued before it has been transmitted.

Producer PUB frames reuse :class:`EventMessage` (empty BROCLI, publish id
0 — the ingress broker mints the real id) and deliveries to subscriber
sessions reuse :class:`NotifyMessage`, so the live wire stays the same
message union the simulator charges bytes for.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import FrozenSet, Tuple, Union

from repro.model.events import Event
from repro.model.ids import SubscriptionId
from repro.model.subscriptions import Subscription
from repro.summary.summary import BrokerSummary
from repro.wire.codec import (
    ByteReader,
    ByteWriter,
    CodecError,
    WireCodec,
    _decode_guard,
    _truncated,
    varint_at,
)

__all__ = [
    "AckMessage",
    "AdvertisementMessage",
    "HelloMessage",
    "MessageKind",
    "PingMessage",
    "PongMessage",
    "ReliableDataMessage",
    "ROLE_PEER",
    "ROLE_PRODUCER",
    "ROLE_SUBSCRIBER",
    "SummaryMessage",
    "SummaryDeltaMessage",
    "SummaryRequestMessage",
    "SubAckMessage",
    "SubscribeMessage",
    "SubscriptionBatchMessage",
    "EventMessage",
    "NotifyMessage",
    "UnsubscribeMessage",
    "Message",
    "MessageCodec",
]


class MessageKind(enum.IntEnum):
    SUMMARY = 0
    SUBSCRIPTION_BATCH = 1
    EVENT = 2
    NOTIFY = 3
    ADVERTISEMENT = 4
    ACK = 5
    RELIABLE_DATA = 6
    # -- live-runtime control plane (repro.runtime) --
    HELLO = 7
    SUBSCRIBE = 8
    SUB_ACK = 9
    UNSUBSCRIBE = 10
    PING = 11
    PONG = 12
    # -- incremental propagation (delta mode) --
    SUMMARY_DELTA = 13
    SUMMARY_REQUEST = 14


#: :class:`HelloMessage` roles — who is on the other end of a connection.
ROLE_PEER = 0  # another broker; ``identity`` is its broker id
ROLE_PRODUCER = 1  # an Event Source client session
ROLE_SUBSCRIBER = 2  # an Event Displayer client session


@dataclass(frozen=True)
class SummaryMessage:
    """Algorithm 2: merged summary + the Merged_Brokers set."""

    summary: BrokerSummary
    merged_brokers: FrozenSet[int]

    kind = MessageKind.SUMMARY


@dataclass(frozen=True)
class SummaryDeltaMessage:
    """One period's incremental summary update (delta propagation mode).

    ``adds`` is the period delta (rows for subscriptions that are new on
    this link), ``removed`` the ids withdrawn since the last delta, and
    ``merged_brokers`` the accompanying Merged_Brokers contribution — the
    same Algorithm-2 payload as :class:`SummaryMessage`, but incremental.

    The generation pair implements per-link delta chaining: the receiver
    applies the delta only when ``base_generation`` equals the generation
    it last acked from this sender; otherwise it answers with a
    :class:`SummaryRequestMessage` and the sender falls back to a full
    :class:`SummaryMessage` (which resets the link to generation 0).
    Id sets inside ``adds`` and ``removed`` ride the compressed container
    encoding of :mod:`repro.summary.idsets`.
    """

    adds: BrokerSummary
    removed: FrozenSet[SubscriptionId]
    merged_brokers: FrozenSet[int]
    base_generation: int
    generation: int

    kind = MessageKind.SUMMARY_DELTA


@dataclass(frozen=True)
class SummaryRequestMessage:
    """A receiver's request for a full summary after rejecting a delta.

    ``generation`` echoes the receiver's current acked generation for the
    link (diagnostic only — any full :class:`SummaryMessage` answer resets
    the link regardless).
    """

    generation: int = 0

    kind = MessageKind.SUMMARY_REQUEST


@dataclass(frozen=True)
class SubscriptionBatchMessage:
    """Raw subscription propagation (Siena and the broadcast baseline)."""

    entries: Tuple[Tuple[SubscriptionId, Subscription], ...]

    kind = MessageKind.SUBSCRIPTION_BATCH

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class EventMessage:
    """An event in flight, carrying its BROCLI broker-check-list.

    ``publish_id`` uniquely identifies the originating publish call, so
    brokers can de-duplicate redeliveries on at-least-once transports.
    """

    event: Event
    brocli: FrozenSet[int]
    publish_id: int = 0

    kind = MessageKind.EVENT


@dataclass(frozen=True)
class NotifyMessage:
    """Event + matched ids, forwarded to the broker owning the matches."""

    event: Event
    matched: FrozenSet[SubscriptionId]
    publish_id: int = 0

    kind = MessageKind.NOTIFY


@dataclass(frozen=True)
class AdvertisementMessage:
    """Producer advertisements (section-6 advertisement extension).

    An advertisement is structurally a subscription — a conjunction of
    constraints describing the event space a producer will publish — so the
    payload reuses the (id, subscription) batch layout under its own kind.
    """

    entries: Tuple[Tuple[SubscriptionId, Subscription], ...]

    kind = MessageKind.ADVERTISEMENT

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class AckMessage:
    """Transport acknowledgement for one reliable transfer.

    Sent by the receiving endpoint of a :class:`ReliableDataMessage`;
    never wrapped itself (a lost ACK is repaired by the sender's
    retransmission timer, not by acking the ACK).
    """

    transfer_id: int

    kind = MessageKind.ACK


@dataclass(frozen=True)
class ReliableDataMessage:
    """A payload message framed with the reliability header.

    ``transfer_id`` identifies one logical send on one link; the receiver
    acks it and the sender retransmits the same frame until acked or the
    retry budget is exhausted.  Nesting reliability frames is a codec
    error: the payload is always one of the application messages above.
    """

    transfer_id: int
    payload: "Message"

    kind = MessageKind.RELIABLE_DATA


@dataclass(frozen=True)
class HelloMessage:
    """First frame on every live-runtime connection: who is speaking.

    ``role`` is one of :data:`ROLE_PEER` / :data:`ROLE_PRODUCER` /
    :data:`ROLE_SUBSCRIBER`; ``identity`` is the sender's broker id for
    peers and a free client-chosen tag (default 0) for client sessions.
    """

    role: int
    identity: int = 0

    kind = MessageKind.HELLO


@dataclass(frozen=True)
class SubscribeMessage:
    """A subscriber session's SUB frame: register one subscription.

    ``request_id`` correlates the broker's :class:`SubAckMessage` reply on
    a connection that also carries asynchronous NOTIFY frames.
    """

    request_id: int
    subscription: Subscription

    kind = MessageKind.SUBSCRIBE


@dataclass(frozen=True)
class UnsubscribeMessage:
    """A subscriber session's request to withdraw one subscription."""

    request_id: int
    sid: SubscriptionId

    kind = MessageKind.UNSUBSCRIBE


@dataclass(frozen=True)
class SubAckMessage:
    """The broker's reply to SUBSCRIBE/UNSUBSCRIBE.

    On success ``sid`` carries the minted (or withdrawn) subscription id
    and ``error`` is empty; on failure ``sid`` is None and ``error`` says
    why (e.g. id-space exhaustion, unknown sid).
    """

    request_id: int
    sid: "SubscriptionId | None" = None
    error: str = ""

    kind = MessageKind.SUB_ACK

    @property
    def ok(self) -> bool:
        return self.sid is not None and not self.error


@dataclass(frozen=True)
class PingMessage:
    """A client-side barrier probe (see :class:`PongMessage`)."""

    token: int

    kind = MessageKind.PING


@dataclass(frozen=True)
class PongMessage:
    """Reply to one PING.  Because frames are processed in order and the
    reply queues behind any pending NOTIFY frames, receiving the PONG
    proves (a) every frame the client sent before the PING was fully
    processed by the broker, and (b) every notification enqueued for this
    session before the PING was already transmitted."""

    token: int

    kind = MessageKind.PONG


Message = Union[
    SummaryMessage,
    SummaryDeltaMessage,
    SummaryRequestMessage,
    SubscriptionBatchMessage,
    EventMessage,
    NotifyMessage,
    AdvertisementMessage,
    AckMessage,
    ReliableDataMessage,
    HelloMessage,
    SubscribeMessage,
    UnsubscribeMessage,
    SubAckMessage,
    PingMessage,
    PongMessage,
]


#: Tag -> kind without the (slow) enum constructor on every frame.
_KIND_BY_TAG = {kind.value: kind for kind in MessageKind}
_EVENT_TAG = int(MessageKind.EVENT)
_NOTIFY_TAG = int(MessageKind.NOTIFY)


class MessageCodec:
    """Encodes/decodes the message union with a one-byte kind tag."""

    def __init__(self, wire: WireCodec):
        self.wire = wire

    # -- encoding --------------------------------------------------------------

    def encode(self, message: Message) -> bytes:
        writer = ByteWriter()
        writer.byte(int(message.kind))
        # EVENT and NOTIFY first: they dominate the live hot path.
        if isinstance(message, EventMessage):
            writer.varint(message.publish_id)
            self.wire.write_broker_set(writer, message.brocli)
            payload = self.wire.encode_event(message.event)
            writer.varint(len(payload))
            writer.raw(payload)
        elif isinstance(message, NotifyMessage):
            writer.varint(message.publish_id)
            self.wire.write_id_list(writer, message.matched)
            payload = self.wire.encode_event(message.event)
            writer.varint(len(payload))
            writer.raw(payload)
        elif isinstance(message, SummaryMessage):
            self.wire.write_broker_set(writer, set(message.merged_brokers))
            payload = self.wire.encode_summary(message.summary)
            writer.varint(len(payload))
            writer.raw(payload)
        elif isinstance(message, SummaryDeltaMessage):
            writer.varint(message.base_generation)
            writer.varint(message.generation)
            self.wire.write_broker_set(writer, set(message.merged_brokers))
            self.wire.write_compact_id_set(writer, set(message.removed))
            payload = self.wire.encode_summary_compact(message.adds)
            writer.varint(len(payload))
            writer.raw(payload)
        elif isinstance(message, SummaryRequestMessage):
            writer.varint(message.generation)
        elif isinstance(message, (SubscriptionBatchMessage, AdvertisementMessage)):
            writer.varint(len(message.entries))
            for sid, subscription in message.entries:
                writer.raw(self.wire.id_codec.to_bytes(sid))
                self.wire.write_subscription(writer, subscription)
        elif isinstance(message, AckMessage):
            writer.varint(message.transfer_id)
        elif isinstance(message, HelloMessage):
            if message.role not in (ROLE_PEER, ROLE_PRODUCER, ROLE_SUBSCRIBER):
                raise CodecError(f"unknown hello role {message.role}")
            writer.byte(message.role)
            writer.varint(message.identity)
        elif isinstance(message, SubscribeMessage):
            writer.varint(message.request_id)
            self.wire.write_subscription(writer, message.subscription)
        elif isinstance(message, UnsubscribeMessage):
            writer.varint(message.request_id)
            writer.raw(self.wire.id_codec.to_bytes(message.sid))
        elif isinstance(message, SubAckMessage):
            writer.varint(message.request_id)
            if message.sid is not None:
                writer.byte(1)
                writer.raw(self.wire.id_codec.to_bytes(message.sid))
            else:
                writer.byte(0)
                writer.string(message.error)
        elif isinstance(message, (PingMessage, PongMessage)):
            writer.varint(message.token)
        elif isinstance(message, ReliableDataMessage):
            if isinstance(message.payload, (AckMessage, ReliableDataMessage)):
                raise CodecError("reliability frames cannot nest")
            writer.varint(message.transfer_id)
            payload = self.encode(message.payload)
            writer.varint(len(payload))
            writer.raw(payload)
        else:  # pragma: no cover - closed union
            raise CodecError(f"unknown message type {type(message).__name__}")
        return writer.getvalue()

    @_decode_guard
    def decode(self, data: bytes) -> Message:
        if not data:
            raise _truncated(1, 0)
        tag = data[0]
        # EVENT and NOTIFY first: they dominate the live hot path.
        if tag == _EVENT_TAG or tag == _NOTIFY_TAG:
            return self._event_frame(data, tag)
        kind = _KIND_BY_TAG.get(tag)
        if kind is None:
            raise CodecError(f"unknown message kind {tag}")
        reader = ByteReader(data)
        reader.byte()
        message: Message
        if kind is MessageKind.SUMMARY:
            brokers = frozenset(self.wire.read_broker_set(reader))
            payload = reader.raw(reader.varint())
            message = SummaryMessage(
                summary=self.wire.decode_summary(payload), merged_brokers=brokers
            )
        elif kind is MessageKind.SUMMARY_DELTA:
            base_generation = reader.varint()
            generation = reader.varint()
            brokers = frozenset(self.wire.read_broker_set(reader))
            removed = frozenset(self.wire.read_compact_id_set(reader))
            payload = reader.raw(reader.varint())
            message = SummaryDeltaMessage(
                adds=self.wire.decode_summary_compact(payload),
                removed=removed,
                merged_brokers=brokers,
                base_generation=base_generation,
                generation=generation,
            )
        elif kind is MessageKind.SUMMARY_REQUEST:
            message = SummaryRequestMessage(generation=reader.varint())
        elif kind in (MessageKind.SUBSCRIPTION_BATCH, MessageKind.ADVERTISEMENT):
            count = reader.varint()
            entries = []
            for _ in range(count):
                sid = self.wire.id_codec.from_bytes(
                    reader.raw(self.wire.id_codec.byte_size)
                )
                entries.append((sid, self.wire.read_subscription(reader)))
            if kind is MessageKind.SUBSCRIPTION_BATCH:
                message = SubscriptionBatchMessage(entries=tuple(entries))
            else:
                message = AdvertisementMessage(entries=tuple(entries))
        elif kind is MessageKind.ACK:
            message = AckMessage(transfer_id=reader.varint())
        elif kind is MessageKind.HELLO:
            role = reader.byte()
            if role not in (ROLE_PEER, ROLE_PRODUCER, ROLE_SUBSCRIBER):
                raise CodecError(f"unknown hello role {role}")
            message = HelloMessage(role=role, identity=reader.varint())
        elif kind is MessageKind.SUBSCRIBE:
            request_id = reader.varint()
            message = SubscribeMessage(
                request_id=request_id,
                subscription=self.wire.read_subscription(reader),
            )
        elif kind is MessageKind.UNSUBSCRIBE:
            request_id = reader.varint()
            sid = self.wire.id_codec.from_bytes(
                reader.raw(self.wire.id_codec.byte_size)
            )
            message = UnsubscribeMessage(request_id=request_id, sid=sid)
        elif kind is MessageKind.SUB_ACK:
            request_id = reader.varint()
            if reader.byte():
                sid = self.wire.id_codec.from_bytes(
                    reader.raw(self.wire.id_codec.byte_size)
                )
                message = SubAckMessage(request_id=request_id, sid=sid)
            else:
                message = SubAckMessage(
                    request_id=request_id, sid=None, error=reader.string()
                )
        elif kind is MessageKind.PING:
            message = PingMessage(token=reader.varint())
        elif kind is MessageKind.PONG:
            message = PongMessage(token=reader.varint())
        elif kind is MessageKind.RELIABLE_DATA:
            transfer_id = reader.varint()
            payload_bytes = reader.raw(reader.varint())
            inner = self.decode(payload_bytes)
            if isinstance(inner, (AckMessage, ReliableDataMessage)):
                raise CodecError("reliability frames cannot nest")
            message = ReliableDataMessage(transfer_id=transfer_id, payload=inner)
        else:  # pragma: no cover - every tag is handled above
            raise CodecError(f"unknown message kind {tag}")
        if not reader.at_end():
            raise CodecError(f"{reader.remaining} trailing bytes after message")
        return message

    def _event_frame(self, data: bytes, tag: int) -> Message:
        """An EVENT or NOTIFY frame, read in place: the BROCLI or matched
        ids straight into their frozenset, the event by
        :meth:`WireCodec.event_at` over its span of ``data`` (so
        forwarding it re-sends the same bytes)."""
        end = len(data)
        publish_id, pos = varint_at(data, 1, end)
        count, pos = varint_at(data, pos, end)
        if tag == _EVENT_TAG:
            members = []
            for _ in range(count):
                broker, pos = varint_at(data, pos, end)
                members.append(broker)
        else:
            id_codec = self.wire.id_codec
            size = id_codec.byte_size
            stop = pos + count * size
            if stop > end:
                raise _truncated(count * size, end - pos)
            memo = id_codec.sid_memo.get
            from_bytes = id_codec.from_bytes
            members = [
                memo(data[at:at + size]) or from_bytes(data[at:at + size])
                for at in range(pos, stop, size)
            ]
            pos = stop
        length, pos = varint_at(data, pos, end)
        stop = pos + length
        if stop > end:
            raise _truncated(length, end - pos)
        if stop < end:
            raise CodecError(f"{end - stop} trailing bytes after message")
        event = self.wire.event_at(data, pos, stop)
        if tag == _EVENT_TAG:
            return EventMessage(event=event, brocli=frozenset(members), publish_id=publish_id)
        return NotifyMessage(event=event, matched=frozenset(members), publish_id=publish_id)

    def size(self, message: Message) -> int:
        """Encoded length in bytes — what the simulator charges per hop
        (the live runtime meters the bytes its lane writers encode)."""
        return len(self.encode(message))
