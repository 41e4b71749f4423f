"""Bit-packed subscription ids (paper section 3.2).

A subscription id is the concatenation of three parts:

* ``c1`` — the id of the broker the subscription belongs to
  (``ceil(log2(#brokers))`` bits),
* ``c2`` — the per-broker subscription counter
  (``ceil(log2(max outstanding subscriptions))`` bits),
* ``c3`` — a bitmask with one bit per schema attribute, set when the
  subscription constrains that attribute (``nt`` bits).

The paper's figure 6 example: 4 brokers (2 bits), 8 subscriptions per broker
(3 bits), 7 attributes (7 bits); subscription 1 of broker 2 constraining
attributes 3, 5 and 6 packs as ``10 | 001 | 0110100``.

``c3`` lets the matcher know *how many* attributes a subscription constrains
without any per-subscription state: an id matched by ``k`` satisfied
attribute lists is a full match iff ``k == popcount(c3)`` (Algorithm 1,
step 2).

A :class:`SubscriptionId` is a tuple value: ids live in sets, dict keys
and sorted lists all along the delivery path (Algorithm 3 groups matched
ids by ``c1``), so hashing, equality and ordering are the tuple's, in C.
An id equals, hashes and sorts like its plain ``(c1, c2, c3)`` tuple.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, NamedTuple, Tuple

__all__ = ["SubscriptionId", "IdCodec", "popcount"]


def popcount(mask: int) -> int:
    """Number of set bits.

    Delegates to :meth:`int.bit_count` (Python >= 3.10, our CI floor),
    which compiles down to a single POPCNT-style instruction instead of
    the old ``bin(mask).count("1")`` string round-trip.  This sits on the
    Algorithm-1 hot path — every matched id pays one popcount for the
    ``hit-count == popcount(c3)`` termination test — and the swap is worth
    roughly 3x on that call alone (see the micro-benchmark note in
    ``benchmarks/test_matching_speed.py``).
    """
    return mask.bit_count()


class _IdFields(NamedTuple):
    broker: int  # c1
    local_id: int  # c2
    attr_mask: int  # c3


class SubscriptionId(_IdFields):
    """The decoded (c1, c2, c3) triple.

    Instances are small, immutable and totally ordered so they can live in
    the id lists of summary rows and be merged deterministically.  Hash,
    equality and ordering are those of the ``(c1, c2, c3)`` tuple.
    """

    __slots__ = ()

    def __new__(cls, broker: int, local_id: int, attr_mask: int) -> "SubscriptionId":
        # Also runs on unpickling and copying, so no invalid id is ever built.
        if broker < 0:
            raise ValueError("broker id (c1) must be non-negative")
        if local_id < 0:
            raise ValueError("local subscription id (c2) must be non-negative")
        if attr_mask <= 0:
            raise ValueError("attribute mask (c3) must have at least one bit set")
        return tuple.__new__(cls, (broker, local_id, attr_mask))

    @classmethod
    def _make(cls, iterable: Iterable[int]) -> "SubscriptionId":
        # The tuple's own ``_make`` (and so ``_replace``) skips ``__new__``.
        return cls(*iterable)

    @property
    def attribute_count(self) -> int:
        """popcount(c3): the number of attributes the subscription constrains."""
        return popcount(self.attr_mask)

    def constrains(self, position: int) -> bool:
        """Whether the c3 bit for schema position ``position`` is set."""
        return bool(self.attr_mask & (1 << position))

    def __str__(self) -> str:
        return f"S(b{self.broker}.{self.local_id}, c3={self.attr_mask:#x})"


class IdCodec:
    """Packs/unpacks :class:`SubscriptionId` into fixed-width integers/bytes.

    Field widths are system constants derived from the deployment size, per
    section 3.2.  The codec is shared by all brokers (it is part of the
    schema agreement) and is what the wire layer uses to charge id bytes.
    """

    def __init__(self, num_brokers: int, max_subscriptions: int, num_attributes: int):
        if num_brokers < 1:
            raise ValueError("need at least one broker")
        if max_subscriptions < 1:
            raise ValueError("need room for at least one subscription per broker")
        if num_attributes < 1:
            raise ValueError("need at least one attribute")
        self.num_brokers = num_brokers
        self.max_subscriptions = max_subscriptions
        self.num_attributes = num_attributes
        self.c1_bits = _bits_for(num_brokers)
        self.c2_bits = _bits_for(max_subscriptions)
        self.c3_bits = num_attributes
        #: Total packed width / bytes per id on the wire.  Plain attributes
        #: (not properties): the wire layer reads them per id.
        self.total_bits = self.c1_bits + self.c2_bits + self.c3_bits
        self.byte_size = (self.total_bits + 7) // 8
        # The live id space is small (active subscriptions), so memoizing
        # the bytes<->sid conversions turns the per-id bit arithmetic of
        # every NOTIFY frame into a dict hit.  Bounded by wholesale clear.
        # Hot loops read them with ``.get`` and fall back to
        # :meth:`to_bytes` / :meth:`from_bytes` (which check and fill them)
        # on a miss.
        self.bytes_memo: Dict[SubscriptionId, bytes] = {}
        self.sid_memo: Dict[bytes, SubscriptionId] = {}

    # -- int packing ---------------------------------------------------------------

    def pack(self, sid: SubscriptionId) -> int:
        """Pack to an integer laid out as ``c1 | c2 | c3`` (c3 in the low bits)."""
        if sid.broker >= self.num_brokers:
            raise ValueError(f"broker id {sid.broker} out of range (< {self.num_brokers})")
        if sid.local_id >= self.max_subscriptions:
            raise ValueError(
                f"local id {sid.local_id} out of range (< {self.max_subscriptions})"
            )
        if sid.attr_mask >= (1 << self.c3_bits):
            raise ValueError(f"attribute mask {sid.attr_mask:#x} needs more than c3 bits")
        return (
            (sid.broker << (self.c2_bits + self.c3_bits))
            | (sid.local_id << self.c3_bits)
            | sid.attr_mask
        )

    def unpack(self, packed: int) -> SubscriptionId:
        if packed < 0 or packed >= (1 << self.total_bits):
            raise ValueError(f"packed id {packed:#x} out of range")
        attr_mask = packed & ((1 << self.c3_bits) - 1)
        rest = packed >> self.c3_bits
        local_id = rest & ((1 << self.c2_bits) - 1)
        broker = rest >> self.c2_bits
        return SubscriptionId(broker=broker, local_id=local_id, attr_mask=attr_mask)

    # -- byte packing ------------------------------------------------------------------

    def to_bytes(self, sid: SubscriptionId) -> bytes:
        data = self.bytes_memo.get(sid)
        if data is None:
            data = self.pack(sid).to_bytes(self.byte_size, "big")
            if len(self.bytes_memo) >= 65536:
                self.bytes_memo.clear()
            self.bytes_memo[sid] = data
        return data

    def from_bytes(self, data: bytes) -> SubscriptionId:
        sid = self.sid_memo.get(data)
        if sid is None:
            if len(data) != self.byte_size:
                raise ValueError(f"expected {self.byte_size} bytes, got {len(data)}")
            sid = self.unpack(int.from_bytes(data, "big"))
            if len(self.sid_memo) >= 65536:
                self.sid_memo.clear()
            self.sid_memo[data] = sid
        return sid

    def pack_many(self, sids: Iterable[SubscriptionId]) -> bytes:
        return b"".join(self.to_bytes(sid) for sid in sids)

    def unpack_many(self, data: bytes) -> List[SubscriptionId]:
        size = self.byte_size
        if len(data) % size:
            raise ValueError(f"byte length {len(data)} not a multiple of id size {size}")
        return [self.from_bytes(data[i : i + size]) for i in range(0, len(data), size)]

    # -- introspection ----------------------------------------------------------------

    def field_widths(self) -> Tuple[int, int, int]:
        return (self.c1_bits, self.c2_bits, self.c3_bits)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IdCodec):
            return NotImplemented
        return (
            self.num_brokers == other.num_brokers
            and self.max_subscriptions == other.max_subscriptions
            and self.num_attributes == other.num_attributes
        )

    def __hash__(self) -> int:
        return hash((self.num_brokers, self.max_subscriptions, self.num_attributes))

    def __repr__(self) -> str:
        return (
            f"IdCodec(c1={self.c1_bits}b, c2={self.c2_bits}b, c3={self.c3_bits}b, "
            f"{self.byte_size} bytes/id)"
        )


def _bits_for(count: int) -> int:
    """Rounded-up base-2 logarithm, minimum one bit (paper section 3.2)."""
    return max(1, math.ceil(math.log2(count))) if count > 1 else 1
