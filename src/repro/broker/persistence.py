"""Broker state snapshots: crash/restart support.

A production broker must survive restarts without losing its clients'
subscriptions or the remote knowledge it accumulated over propagation
periods.  Everything durable about a :class:`SummaryBroker` is:

* its raw subscription store (with the ``c2`` id watermark),
* the set of ids still *pending* propagation,
* the removals it has not shipped yet (``removed_pending``),
* the kept multi-broker summary, and
* the ``Merged_Brokers`` set.

:class:`SnapshotCodec` serializes exactly that, reusing the wire codec (a
snapshot is the same bytes that would travel the network, plus the local
tables).  ``save_system``/``load_system`` snapshot a whole
:class:`~repro.broker.system.SummaryPubSub` to a directory and rebuild an
equivalent one — the recovery test asserts the rebuilt system routes
byte-for-byte identically.

All snapshot writes are atomic (temp file + fsync + ``os.replace``), so a
crash mid-save leaves either the previous complete snapshot or the new
one, never a torn prefix; :func:`save_broker` exposes the single-broker
unit the live runtime's graceful drain uses.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Dict, Iterable, List, Union

from repro.broker.broker import SummaryBroker
from repro.broker.system import SummaryPubSub
from repro.wire.codec import ByteReader, ByteWriter, CodecError, ValueWidth, WireCodec

__all__ = [
    "SnapshotCodec",
    "allocate_epoch",
    "save_broker",
    "save_system",
    "load_system",
    "snapshot_files",
    "snapshot_path",
    "write_snapshot_atomic",
    "SNAPSHOT_MAGIC",
    "EPOCH_FILE",
]

PathLike = Union[str, Path]

#: Format marker + version byte at the head of every snapshot.
SNAPSHOT_MAGIC = b"RSB2"
#: The previous format: no ``removed_pending`` block.  Still loads, with
#: nothing left to ship.
_RSB1_MAGIC = b"RSB1"


class SnapshotCodec:
    """Serializes one broker's durable state.

    Snapshots always use 64-bit arithmetic values regardless of the
    system's wire width: the F32 width exists to mirror the paper's
    ``sst = 4`` *bandwidth accounting*, but a snapshot must restore the
    exact in-memory state (F32 rounding of range bounds and equality
    values would silently drop boundary matches after recovery).
    """

    def __init__(self, wire: WireCodec):
        self.wire = WireCodec(wire.schema, wire.id_codec, ValueWidth.F64)

    def encode_broker(self, broker: SummaryBroker) -> bytes:
        writer = ByteWriter()
        writer.raw(SNAPSHOT_MAGIC)
        writer.varint(broker.broker_id)
        writer.varint(broker.store.next_local_id)
        entries = sorted(broker.store.items())
        writer.varint(len(entries))
        for sid, subscription in entries:
            writer.raw(self.wire.id_codec.to_bytes(sid))
            self.wire.write_subscription(writer, subscription)
        pending_ids = {sid for sid, _subscription in broker.pending}
        self.wire.write_id_list(writer, pending_ids)
        self.wire.write_id_list(writer, broker.removed_pending)
        self.wire.write_broker_set(writer, broker.merged_brokers)
        summary = self.wire.encode_summary(broker.kept_summary)
        writer.varint(len(summary))
        writer.raw(summary)
        return writer.getvalue()

    def restore_broker(self, data: bytes, broker: SummaryBroker) -> None:
        """Load a snapshot into a freshly-constructed (empty) broker.

        Any malformation — bad/absent :data:`SNAPSHOT_MAGIC`, truncation
        (e.g. a write torn by a crash on a filesystem without atomic
        rename), or corrupt interior tables — surfaces as a
        :class:`~repro.wire.codec.CodecError` naming the snapshot, never a
        cryptic struct/KeyError from deep inside the codec.
        """
        if len(broker.store) or broker.pending:
            raise ValueError("snapshots restore into empty brokers only")
        try:
            self._restore_broker_body(data, broker)
        except CodecError as exc:
            raise CodecError(
                f"corrupt snapshot for broker {broker.broker_id}: {exc}"
            ) from exc
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            raise CodecError(
                f"corrupt snapshot for broker {broker.broker_id}: {exc!r}"
            ) from exc

    def _restore_broker_body(self, data: bytes, broker: SummaryBroker) -> None:
        reader = ByteReader(data)
        if len(data) < len(SNAPSHOT_MAGIC):
            raise CodecError(
                f"truncated header: {len(data)} bytes, "
                f"need at least {len(SNAPSHOT_MAGIC)} (bad or torn write?)"
            )
        magic = reader.raw(len(SNAPSHOT_MAGIC))
        if magic not in (SNAPSHOT_MAGIC, _RSB1_MAGIC):
            raise CodecError(
                f"not a broker snapshot (bad magic, expected {SNAPSHOT_MAGIC!r})"
            )
        broker_id = reader.varint()
        if broker_id != broker.broker_id:
            raise CodecError(
                f"snapshot belongs to broker {broker_id}, not {broker.broker_id}"
            )
        next_local_id = reader.varint()
        count = reader.varint()
        by_sid = {}
        for _ in range(count):
            sid = self.wire.id_codec.from_bytes(
                reader.raw(self.wire.id_codec.byte_size)
            )
            subscription = self.wire.read_subscription(reader)
            broker.store.restore(sid, subscription)
            by_sid[sid] = subscription
        pending_ids = self.wire.read_id_list(reader)
        broker.pending = [
            (sid, by_sid[sid]) for sid in sorted(pending_ids) if sid in by_sid
        ]
        if magic == SNAPSHOT_MAGIC:
            broker.removed_pending = self.wire.read_id_list(reader)
        broker.merged_brokers = set(self.wire.read_broker_set(reader))
        summary_bytes = reader.raw(reader.varint())
        broker.kept_summary = self.wire.decode_summary(summary_bytes)
        if not reader.at_end():
            raise CodecError(f"{reader.remaining} trailing bytes after snapshot")
        # The watermark must also cover ids unsubscribed before the snapshot.
        broker.store.advance_watermark(next_local_id)
        # Publish-id dedup tables are transient routing state, not durable
        # knowledge: a restored broker serves a *new* router generation
        # (fresh epoch), so any remembered ids are stale.  Clearing them is
        # belt-and-braces against pre-restore entries surviving into the
        # new deployment and suppressing fresh events as "duplicates".
        broker.clear_dedup()
        # Suppression maps are likewise transient (snapshots predate them
        # or were taken by a broker with suppression off): rebuild the
        # covering frontier around what the snapshot says is already
        # visible to the outside world.  Delta-generation chains are NOT
        # persisted on purpose — peers' next deltas fail the
        # base-generation check and fall back to full summaries, which is
        # exactly the resync a restarted broker needs.
        broker.rebuild_suppression_from_state()


def write_snapshot_atomic(path: Path, data: bytes) -> None:
    """Write snapshot bytes so a crash can never leave a torn file.

    The bytes go to a temp file *in the same directory* (``os.replace`` is
    only atomic within one filesystem) and are fsynced before the rename,
    so after a crash the target is either the complete old snapshot or the
    complete new one — never a prefix.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def snapshot_path(directory: PathLike, broker_id: int) -> Path:
    """Canonical ``broker-<id>.snap`` location inside a snapshot dir."""
    return Path(directory) / f"broker-{broker_id}.snap"


#: Durable epoch counter kept next to the snapshots.
EPOCH_FILE = "epoch.counter"


def allocate_epoch(
    directory: "Union[str, Path, None]" = None, broker_id: "Union[int, None]" = None
) -> int:
    """Mint a publish-id epoch for a (re)starting broker process.

    The 49-bit publish-id namespace is ``[1 | epoch:8 | origin:16 |
    seq:24]``; surviving peers keep recently seen ids in their dedup
    tables, so a broker that cold-rejoins after a crash (no snapshot, no
    memory of its last sequence number) **must not** reuse its previous
    epoch — its fresh events would re-mint already-seen ids and be eaten
    as duplicates at the first surviving hop.

    With a ``directory`` the epoch is a durable monotonic counter
    (atomically written next to the snapshots, one counter per broker when
    ``broker_id`` is given), guaranteeing a fresh value for up to 255
    consecutive restarts (the wire field is ``epoch mod 256``).  Without
    one there is nothing durable to count on, so the fallback is a random
    16-bit draw — a 1/256 chance of colliding with the previous
    incarnation mod 256, which the docstringed caller accepts in exchange
    for zero persistent state.
    """
    if directory is None:
        return int.from_bytes(os.urandom(2), "big") | 1
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    name = EPOCH_FILE if broker_id is None else f"epoch-{broker_id}.counter"
    path = target / name
    previous = 0
    if path.exists():
        try:
            previous = int(path.read_text().strip() or 0)
        except ValueError:
            previous = 0
    epoch = previous + 1
    write_snapshot_atomic(path, str(epoch).encode("ascii"))
    return epoch


def save_broker(broker: SummaryBroker, directory: PathLike, wire: WireCodec) -> Path:
    """Atomically snapshot one broker to ``<directory>/broker-<id>.snap``.

    This is the unit the live runtime's graceful drain uses (one
    :class:`~repro.runtime.server.BrokerRuntime` owns one broker); the
    whole-system :func:`save_system` is a loop over it.
    """
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    path = snapshot_path(target, broker.broker_id)
    write_snapshot_atomic(path, SnapshotCodec(wire).encode_broker(broker))
    return path


def save_system(system: SummaryPubSub, directory: PathLike) -> List[Path]:
    """Snapshot every broker to ``<directory>/broker-<id>.snap`` (each file
    written atomically by :func:`save_broker`)."""
    return [
        save_broker(broker, directory, system.wire)
        for _broker_id, broker in sorted(system.brokers.items())
    ]


def snapshot_files(directory: PathLike, broker_ids: Iterable[int]) -> Dict[int, Path]:
    """Each broker's snapshot in ``directory``, in broker-id order.

    Every broker must have its snapshot, and every ``broker-*.snap`` file
    in the directory must belong to one of them: a stray snapshot means
    the directory was written by a *different* deployment (more brokers,
    different numbering), and silently ignoring it would half-restore that
    deployment's state.  Both rules are checked before anything loads.
    """
    source = Path(directory)
    paths = {
        broker_id: snapshot_path(source, broker_id) for broker_id in sorted(broker_ids)
    }
    expected = {path.name for path in paths.values()}
    strays = sorted(
        p.name for p in source.glob("broker-*.snap") if p.name not in expected
    )
    if strays:
        raise ValueError(
            f"snapshot directory {source} holds snapshots for brokers not in "
            f"this topology ({', '.join(strays)}); refusing to half-restore a "
            f"mismatched deployment"
        )
    for broker_id, path in paths.items():
        if not path.exists():
            raise FileNotFoundError(f"missing snapshot for broker {broker_id}: {path}")
    return paths


def load_system(system: SummaryPubSub, directory: PathLike) -> SummaryPubSub:
    """Restore snapshots into a freshly-built system (same topology/schema).

    The caller constructs the empty system (topology, schema, precision and
    codec parameters must match the saved deployment — the snapshot format
    carries subscriptions, not configuration).  The directory must hold
    exactly one snapshot per broker (:func:`snapshot_files`).
    """
    codec = SnapshotCodec(system.wire)
    for broker_id, path in snapshot_files(directory, system.brokers).items():
        codec.restore_broker(path.read_bytes(), system.brokers[broker_id])
    return system
