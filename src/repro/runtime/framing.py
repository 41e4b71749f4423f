"""Length-prefixed frame protocol for the live runtime.

Every frame on a broker-to-broker or client-to-broker TCP connection is::

    +----------------------+-------------------------------+
    | length: u32 (BE)     | payload: MessageCodec bytes   |
    +----------------------+-------------------------------+

where ``payload`` is exactly one encoded :class:`~repro.wire.messages
.Message` (kind tag + body — the same bytes the simulator charges per
hop, so live and simulated byte accounting agree).  The prefix keeps the
stream self-delimiting; the codec's own trailing-bytes check keeps it
self-validating.

Defensive rules, enforced on *both* directions:

* a length of zero is invalid (no message encodes to zero bytes — the
  kind tag alone is one byte), and is rejected before any read;
* a length above :data:`MAX_FRAME_BYTES` is rejected *from the prefix
  alone* — a corrupt or adversarial prefix can never make the reader
  allocate or wait for gigabytes;
* a stream ending mid-frame (header or payload) raises
  :class:`~repro.wire.codec.CodecError`; ending cleanly *between* frames
  is a normal EOF (``None``).

:class:`FrameAssembler` is the sans-io incremental decoder (fed arbitrary
chunks, yields complete payloads) used by the property tests;
:func:`read_frame` / :func:`write_frame` are the asyncio stream versions;
:class:`FrameConnection` pairs them with a :class:`~repro.wire.messages
.MessageCodec` to move typed messages.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Deque, List, Optional, Sequence

from repro.wire.codec import CodecError
from repro.wire.messages import Message, MessageCodec

__all__ = [
    "FrameAssembler",
    "FrameConnection",
    "LENGTH_BYTES",
    "MAX_FRAME_BYTES",
    "READ_CHUNK_BYTES",
    "encode_frame",
    "read_frame",
    "write_frame",
    "write_frames",
]

#: Width of the big-endian length prefix.
LENGTH_BYTES = 4

#: How much :class:`FrameConnection` pulls off the socket per read.  One
#: ``read()`` of a busy stream returns *many* small frames at once, which
#: is what makes :meth:`FrameConnection.recv_burst` a real batch: the
#: frames were already paid for by a single syscall.
READ_CHUNK_BYTES = 256 * 1024

#: Hard cap on one frame's payload.  Summaries are the largest messages;
#: at the paper's scales they are kilobytes, so 16 MiB leaves three
#: orders of magnitude of headroom while bounding what a corrupt prefix
#: can demand from the reader.
MAX_FRAME_BYTES = 16 * 1024 * 1024


def _check_length(length: int, max_frame_bytes: int) -> None:
    if length == 0:
        raise CodecError("zero-length frame")
    if length > max_frame_bytes:
        raise CodecError(
            f"frame of {length} bytes exceeds the {max_frame_bytes}-byte cap "
            f"(corrupt length prefix?)"
        )


def encode_frame(payload: bytes, max_frame_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """Prefix one encoded message with its length."""
    _check_length(len(payload), max_frame_bytes)
    return len(payload).to_bytes(LENGTH_BYTES, "big") + payload


class FrameAssembler:
    """Incremental frame decoder, tolerant of arbitrary chunking.

    Feed it whatever the transport produced — half a length prefix, three
    frames and a bit of a fourth — and it returns every *complete* payload
    while buffering the rest.  Oversized/zero length prefixes raise
    :class:`CodecError` as soon as the prefix is complete, before waiting
    for (or buffering) the bogus payload.
    """

    __slots__ = ("_buffer", "_max")

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES):
        self._buffer = bytearray()
        self._max = max_frame_bytes

    @property
    def buffered(self) -> int:
        """Bytes held waiting for the rest of a frame."""
        return len(self._buffer)

    def at_boundary(self) -> bool:
        """True when no partial frame is buffered (a clean EOF point)."""
        return not self._buffer

    def feed(self, data: bytes) -> List[bytes]:
        """Absorb ``data``; return the payloads completed by it (in order)."""
        self._buffer.extend(data)
        frames: List[bytes] = []
        buffer = self._buffer
        while len(buffer) >= LENGTH_BYTES:
            length = int.from_bytes(buffer[:LENGTH_BYTES], "big")
            _check_length(length, self._max)
            end = LENGTH_BYTES + length
            if len(buffer) < end:
                break
            frames.append(bytes(buffer[LENGTH_BYTES:end]))
            del buffer[:end]
        return frames

    def finish(self) -> None:
        """Signal EOF: raises if the stream died mid-frame."""
        if self._buffer:
            raise CodecError(
                f"stream ended mid-frame with {len(self._buffer)} buffered bytes"
            )


async def read_frame(
    reader: asyncio.StreamReader, max_frame_bytes: int = MAX_FRAME_BYTES
) -> Optional[bytes]:
    """Read one frame payload; None on clean EOF between frames.

    A connection dropped mid-header or mid-payload raises
    :class:`CodecError` — the caller must treat the peer's state as
    unknown, not as "no more messages".
    """
    try:
        header = await reader.readexactly(LENGTH_BYTES)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF on a frame boundary
        raise CodecError(
            f"stream ended mid-header ({len(exc.partial)}/{LENGTH_BYTES} bytes)"
        ) from exc
    length = int.from_bytes(header, "big")
    _check_length(length, max_frame_bytes)
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise CodecError(
            f"stream ended mid-frame ({len(exc.partial)}/{length} payload bytes)"
        ) from exc


async def write_frame(
    writer: asyncio.StreamWriter,
    payload: bytes,
    max_frame_bytes: int = MAX_FRAME_BYTES,
) -> None:
    """Write one frame and wait for the transport's flow control.

    The ``drain()`` is what couples a slow receiver back to the sender:
    with the receiver's socket buffer full, drain blocks, the sender's
    bounded queue fills, and *its* producers block in turn.
    """
    writer.write(encode_frame(payload, max_frame_bytes))
    await writer.drain()


async def write_frames(
    writer: asyncio.StreamWriter,
    payloads: Sequence[bytes],
    max_frame_bytes: int = MAX_FRAME_BYTES,
) -> None:
    """Write many frames with one buffered write and one drain.

    The coalesced form of :func:`write_frame`: every payload is
    length-prefixed individually (the stream stays self-delimiting) but
    the kernel sees a single buffer, so a drain of N queued messages
    costs one syscall instead of N.  Flow-control semantics are
    unchanged — the single ``drain()`` still blocks on a slow receiver.
    """
    if not payloads:
        return
    writer.write(
        b"".join(encode_frame(payload, max_frame_bytes) for payload in payloads)
    )
    await writer.drain()


class FrameConnection:
    """One TCP connection moving typed :class:`Message` frames.

    Reads are *chunked*: the connection pulls up to
    :data:`READ_CHUNK_BYTES` per socket read into a
    :class:`FrameAssembler` and hands out the decoded messages one
    (:meth:`recv`) or many (:meth:`recv_burst`) at a time.  A burst never
    waits for more than the first message — it simply returns whatever a
    single read already delivered, which is the natural batch unit for
    the broker's dispatch loop.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        codec: MessageCodec,
        max_frame_bytes: int = MAX_FRAME_BYTES,
    ):
        self._reader = reader
        self._writer = writer
        self.codec = codec
        self.max_frame_bytes = max_frame_bytes
        self._assembler = FrameAssembler(max_frame_bytes)
        self._payloads: Deque[bytes] = deque()
        self._eof = False

    def peer_closed(self) -> bool:
        """True once the remote end has shut its side of the stream.

        On a one-directional lane (peer links never receive replies) this
        is the only cheap liveness signal: EOF on the otherwise-unused
        read side means further writes would vanish into a dead socket.
        """
        return self._reader.at_eof()

    async def send(self, message: Message) -> None:
        await write_frame(self._writer, self.codec.encode(message), self.max_frame_bytes)

    async def send_many(self, messages: Sequence[Message]) -> List[int]:
        """Encode and transmit many messages as one coalesced write;
        returns each message's payload length (prefix excluded — the bytes
        the simulator charges per hop)."""
        payloads = [self.codec.encode(message) for message in messages]
        await write_frames(self._writer, payloads, self.max_frame_bytes)
        return [len(payload) for payload in payloads]

    async def _fill(self) -> bool:
        """One socket read into the assembler; False on EOF.

        EOF while a partial frame is buffered raises :class:`CodecError`
        (the peer's state is unknown, not "no more messages") — the same
        contract :func:`read_frame` enforces."""
        if self._eof:
            return False
        data = await self._reader.read(READ_CHUNK_BYTES)
        if not data:
            self._eof = True
            self._assembler.finish()  # raises on a mid-frame death
            return False
        self._payloads.extend(self._assembler.feed(data))
        return True

    async def recv(self) -> Optional[Message]:
        """The next message, or None on clean EOF."""
        while not self._payloads:
            if not await self._fill():
                return None
        return self.codec.decode(self._payloads.popleft())

    async def recv_burst(self, max_messages: int) -> List[Message]:
        """At least one message (unless EOF: ``[]``), at most
        ``max_messages`` — without ever waiting beyond the first.

        Everything a single socket read produced beyond the first frame
        is "free" batch material; frames past ``max_messages`` stay
        buffered for the next call (ordering is preserved)."""
        while not self._payloads:
            if not await self._fill():
                return []
        decode = self.codec.decode
        payloads = self._payloads
        return [
            decode(payloads.popleft())
            for _ in range(min(max_messages, len(payloads)))
        ]

    async def close(self) -> None:
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass  # the peer beat us to it

    def __repr__(self) -> str:
        peer = self._writer.get_extra_info("peername")
        return f"FrameConnection(peer={peer!r})"
