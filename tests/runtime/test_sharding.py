"""Property tests for the sharded runtime's building blocks.

Three layers, cheapest first:

* ``shard_for`` — the pure partitioning function.  Its whole contract is
  here: deterministic across processes and platforms (it must be — the
  acceptor partitions and the workers trust the partition), uniform over
  the *structured* 49-bit publish-id layout of PR 2 (a marker bit, a
  near-constant epoch byte, a small broker field, a sequential counter —
  adversarial input for naive ``id % n``), and stable against golden
  vectors so a refactor can never silently re-shard a live deployment.
* ``ShardPool`` — spawn real workers, prove match parity against a local
  :class:`CompiledMatcher`, the fence-violation error path, and stop/kill
  idempotence.
* ``ShardedBrokerRuntime`` wiring — ``--shards`` CLI plumbing and the
  cluster's per-broker shard map (full end-to-end parity lives in
  ``test_parity.py::TestShardedParity``).
"""

import asyncio
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.broker.routing import EventRouter
from repro.model import Event, parse_subscription, stock_schema
from repro.model.ids import SubscriptionId
from repro.runtime.sharded import (
    MAX_INFLIGHT_BATCHES,
    ShardError,
    ShardPool,
    shard_for,
)
from repro.summary.compiled import CompiledMatcher
from repro.summary.precision import Precision
from repro.summary.summary import BrokerSummary

SEQ_BITS = EventRouter.SEQ_BITS
BROKER_BITS = EventRouter.BROKER_BITS


def layout_id(epoch: int, broker: int, sequence: int) -> int:
    """Mint a publish id exactly like ``EventRouter.next_publish_id``."""
    epoch_field = 0x100 | (epoch & 0xFF)
    return (
        ((epoch_field << BROKER_BITS) | broker) << SEQ_BITS
    ) | (sequence & ((1 << SEQ_BITS) - 1))


class TestShardFor:
    #: Frozen input/output pairs: changing them re-partitions every
    #: running deployment's events, so any change must be deliberate.
    GOLDEN = {
        2: [0, 0, 1, 1, 0],
        4: [0, 2, 1, 3, 0],
        8: [4, 6, 5, 3, 0],
    }
    GOLDEN_IDS = [
        0x1010000000001,
        0x1010000000002,
        0x10100AB000003,
        0x1FF0017FFFFFF,
        0x123456789ABCD,
    ]

    def test_golden_vectors(self):
        for shards, expected in self.GOLDEN.items():
            assert [shard_for(i, shards) for i in self.GOLDEN_IDS] == expected

    def test_range_and_determinism(self):
        for publish_id in self.GOLDEN_IDS:
            for shards in (1, 2, 3, 4, 8, 16):
                first = shard_for(publish_id, shards)
                assert 0 <= first < shards
                assert shard_for(publish_id, shards) == first

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            shard_for(1, 0)

    def test_deterministic_across_processes(self):
        """The partition must not depend on interpreter state: a worker
        computes nothing, it trusts the acceptor's partition — but ops
        tooling (log correlation, per-shard dashboards) recomputes it in
        fresh processes with arbitrary ``PYTHONHASHSEED``."""
        ids = [layout_id(e, b, s) for e in (1, 7) for b in (0, 23) for s in (1, 99)]
        program = (
            "from repro.runtime.sharded import shard_for;"
            f"print([shard_for(i, n) for n in (2, 4, 8) for i in {ids!r}])"
        )
        outputs = set()
        for hashseed in ("0", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (env.get("PYTHONPATH"), "src") if p
            )
            result = subprocess.run(
                [sys.executable, "-c", program],
                capture_output=True, text=True, env=env, check=True,
            )
            outputs.add(result.stdout.strip())
        assert len(outputs) == 1
        local = [shard_for(i, n) for n in (2, 4, 8) for i in ids]
        assert outputs.pop() == repr(local)

    @pytest.mark.parametrize("shards", [2, 4, 8])
    def test_uniform_over_publish_id_layout(self, shards):
        """Chi-square bound over realistic ids: sequential sequences,
        few brokers, few epochs — exactly the structure that would alias
        under ``publish_id % n``.  Critical values at p = 0.001."""
        counts = [0] * shards
        total = 0
        for epoch in (1, 2, 3, 4):
            for broker in range(24):
                for sequence in range(1, 251):
                    counts[shard_for(layout_id(epoch, broker, sequence), shards)] += 1
                    total += 1
        expected = total / shards
        statistic = sum((c - expected) ** 2 / expected for c in counts)
        critical = {2: 10.83, 4: 16.27, 8: 24.32}[shards]  # df = shards-1
        assert statistic < critical, (counts, statistic)

    @given(
        epoch=st.integers(0, 255),
        broker=st.integers(0, (1 << BROKER_BITS) - 1),
        sequence=st.integers(0, (1 << SEQ_BITS) - 1),
        shards=st.sampled_from([2, 3, 4, 8, 16]),
    )
    @settings(max_examples=200, deadline=None)
    def test_stable_under_epoch_namespacing(self, epoch, broker, sequence, shards):
        """Every id the 49-bit layout can mint partitions in range, and
        re-partitioning the same id is a pure function of its value (no
        hidden state across epochs/restarts)."""
        publish_id = layout_id(epoch, broker, sequence)
        shard = shard_for(publish_id, shards)
        assert 0 <= shard < shards
        assert shard_for(publish_id, shards) == shard


def _tiny_summary(schema):
    summary = BrokerSummary(schema, Precision.COARSE)
    for index, text in enumerate(
        ("price < 20", "volume > 1000", "symbol = OTE")
    ):
        subscription = parse_subscription(schema, text)
        summary.add(
            subscription,
            SubscriptionId(
                broker=0, local_id=index, attr_mask=schema.mask_of(subscription)
            ),
        )
    return summary


PROBE_EVENTS = [
    Event.of(price=3.0),
    Event.of(volume=5000),
    Event.of(symbol="OTE"),
    Event.of(price=50.0),
]


class TestShardPool:
    def _run(self, coroutine):
        asyncio.run(coroutine)

    def test_match_parity_and_lifecycle(self):
        async def scenario():
            schema = stock_schema()
            summary = _tiny_summary(schema)
            pool = ShardPool(2)
            await pool.start()
            try:
                await pool.broadcast_snapshot(1, pickle.dumps(summary))
                publish_ids = [layout_id(1, 0, s) for s in range(1, 5)]
                dispatches = await pool.dispatch(1, PROBE_EVENTS, publish_ids)
                got = await pool.collect(1, dispatches, len(PROBE_EVENTS))
                reference = CompiledMatcher(summary)
                assert got == [reference.match(e) for e in PROBE_EVENTS]
                assert pool.snapshot_broadcasts == 1
                assert sum(h.events_matched for h in pool.handles) == len(
                    PROBE_EVENTS
                )
            finally:
                await pool.stop()
                await pool.stop()  # idempotent
            for handle in pool.handles:
                assert not handle.process.is_alive()

        self._run(scenario())

    def test_fence_violation_is_loud(self):
        async def scenario():
            schema = stock_schema()
            pool = ShardPool(2)
            await pool.start()
            try:
                await pool.broadcast_snapshot(
                    7, pickle.dumps(_tiny_summary(schema))
                )
                publish_ids = [layout_id(1, 0, s) for s in range(1, 5)]
                # A request under a fence no worker installed must raise,
                # never return empty matches.
                dispatches = await pool.dispatch(99, PROBE_EVENTS, publish_ids)
                with pytest.raises(ShardError, match="fence"):
                    await pool.collect(99, dispatches, len(PROBE_EVENTS))
                # The pool survives the protocol error and the permits
                # were released: a correct burst still round-trips.
                dispatches = await pool.dispatch(7, PROBE_EVENTS, publish_ids)
                got = await pool.collect(7, dispatches, len(PROBE_EVENTS))
                assert [len(m) for m in got] == [1, 1, 1, 0]
                for handle in pool.handles:
                    assert handle.inflight._value == MAX_INFLIGHT_BATCHES
            finally:
                await pool.stop()

        self._run(scenario())

    def test_kill_terminates_workers(self):
        async def scenario():
            pool = ShardPool(2)
            await pool.start()
            pids = [handle.process.pid for handle in pool.handles]
            assert all(pid is not None for pid in pids)
            pool.kill()
            for handle in pool.handles:
                await asyncio.get_running_loop().run_in_executor(
                    None, handle.process.join, 5.0
                )
                assert not handle.process.is_alive()
            pool.kill()  # idempotent

        self._run(scenario())
