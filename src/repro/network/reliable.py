"""Reliable at-least-once delivery over an unreliable transport.

The paper (like Siena) simply *assumes* reliable broker-to-broker
channels; :mod:`repro.network.faults` quantifies what breaks when the
assumption fails.  This module supplies the missing fault *tolerance*:
:class:`ReliableNetwork` wraps any :class:`~repro.network.simulator
.Network` (most usefully a :class:`~repro.network.faults.LossyNetwork`)
and layers a classic positive-ACK / timeout-retransmit protocol on top.

Protocol
--------

* Every application ``send`` is framed as a
  :class:`~repro.wire.messages.ReliableDataMessage` carrying a fresh
  ``transfer_id`` (the varint id is the real per-message header cost, and
  is charged in encoded bytes like all traffic).
* The receiving endpoint immediately answers with an
  :class:`~repro.wire.messages.AckMessage` for that id, then hands the
  unwrapped payload to the attached broker handler.  ACKs are
  fire-and-forget: a lost ACK is repaired by the *sender's* timer, never
  by acking the ACK.
* The sender keeps the frame in an outstanding table; if no ACK arrives
  within the timeout (measured in simulator rounds) it retransmits, with
  an exponential backoff schedule, up to :class:`RetryPolicy.retries`
  times.  After the budget is exhausted the transfer is dropped and every
  registered *failure listener* is told ``(src, dst, payload)`` — this is
  the hook :class:`~repro.broker.routing.EventRouter` uses to re-route a
  severed BROCLI search around the unreachable broker.

Semantics: **at-least-once**.  When the data frame arrives but its ACK is
lost, the retransmission delivers the payload a second time; upper layers
must therefore be idempotent or de-duplicate.  In this codebase summary
merging is idempotent and the event path de-duplicates on ``publish_id``
(:meth:`SummaryBroker.first_routing_of` / :meth:`SummaryBroker.deliver`),
so consumers still see every event exactly once — asserted by
``tests/experiments/test_delivery_ratio.py``.

Byte accounting is honest end to end: the wrapped inner network charges
the framed size of every (re)transmission and every ACK into the shared
:class:`~repro.network.metrics.NetworkMetrics`; the reliability layer
additionally categorizes that traffic via ``record_ack`` /
``record_retransmit`` so experiments can report the overhead line item.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.network.metrics import NetworkMetrics
from repro.network.simulator import Network, NetworkError
from repro.network.topology import Topology
from repro.wire.messages import (
    AckMessage,
    Message,
    MessageCodec,
    ReliableDataMessage,
)

__all__ = ["ReliableNetwork", "RetryPolicy", "FailureListener"]

#: Called when a transfer is abandoned: ``(src, dst, payload_message)``.
FailureListener = Callable[[int, int, Message], None]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retransmission schedule, expressed in simulator rounds.

    ``retries`` counts *re*-transmissions (0 = send once, never retry).
    The n-th wait is ``timeout_rounds * backoff**n`` rounds, rounded.  The
    synchronous simulator's ACK round-trip is exactly two rounds (data
    delivered in round r+1, ACK in r+2), so ``timeout_rounds=2`` is the
    tightest setting that never retransmits on a healthy link; the
    default of 4 leaves comfortable headroom.
    """

    retries: int = 3
    timeout_rounds: int = 4
    backoff: float = 2.0

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError("retries must be non-negative")
        if self.timeout_rounds < 1:
            raise ValueError("timeout must be at least one round")
        if self.backoff < 1.0:
            raise ValueError("backoff multiplier must be >= 1")

    def timeout_for(self, attempt: int) -> int:
        """Rounds to wait after the given 0-based transmission attempt."""
        return max(1, int(round(self.timeout_rounds * self.backoff**attempt)))

    def schedule(self) -> List[int]:
        """The full wait schedule, one entry per transmission."""
        return [self.timeout_for(attempt) for attempt in range(self.retries + 1)]


class _Transfer:
    """One in-flight reliable send awaiting its ACK."""

    __slots__ = ("src", "dst", "frame", "attempts", "deadline")

    def __init__(self, src: int, dst: int, frame: ReliableDataMessage, deadline: int):
        self.src = src
        self.dst = dst
        self.frame = frame
        self.attempts = 0  # retransmissions performed so far
        self.deadline = deadline


class _Endpoint:
    """Inner-network handler: acks data frames, unwraps, passes through."""

    __slots__ = ("_network", "_broker_id")

    def __init__(self, network: "ReliableNetwork", broker_id: int):
        self._network = network
        self._broker_id = broker_id

    def receive(self, src: int, message: Message) -> None:
        net = self._network
        if isinstance(message, AckMessage):
            net._handle_ack(message)
            return
        if isinstance(message, ReliableDataMessage):
            net._handle_data(self._broker_id, src, message)
            return
        # Unframed traffic (something bypassed the reliable layer and used
        # the inner network directly) — deliver as-is.
        net.handler(self._broker_id).receive(src, message)


class ReliableNetwork(Network):
    """ACK/retransmit reliability layered over any round-based network.

    Construction mirrors :class:`Network` so it drops into
    ``SummaryPubSub(network_cls=ReliableNetwork, network_options=...)``::

        net = ReliableNetwork(
            topology, codec,
            inner_cls=LossyNetwork,
            inner_options={"drop_probability": 0.05, "seed": 7},
            policy=RetryPolicy(retries=3),
        )

    or wraps an existing transport in place::

        net = ReliableNetwork.wrap(lossy, policy=RetryPolicy(retries=1))

    The wrapper and the inner transport share one metrics object (the
    ``metrics`` property delegates), so phase switching by the system
    facade meters reliability traffic into the correct phase.
    """

    def __init__(
        self,
        topology: Optional[Topology] = None,
        codec: Optional[MessageCodec] = None,
        metrics: Optional[NetworkMetrics] = None,
        *,
        inner: Optional[Network] = None,
        inner_cls: Optional[type] = None,
        inner_options: Optional[Dict] = None,
        policy: Optional[RetryPolicy] = None,
        retries: Optional[int] = None,
        timeout_rounds: Optional[int] = None,
        backoff: Optional[float] = None,
    ):
        if inner is not None:
            if inner_cls is not None or inner_options is not None:
                raise ValueError("pass either inner or inner_cls, not both")
            if isinstance(inner, ReliableNetwork):
                raise ValueError("refusing to stack reliability layers")
        else:
            if topology is None:
                raise ValueError("need a topology (or an inner network)")
            inner = (inner_cls or Network)(
                topology, codec, metrics, **(inner_options or {})
            )
        if policy is None:
            overrides = {
                name: value
                for name, value in (
                    ("retries", retries),
                    ("timeout_rounds", timeout_rounds),
                    ("backoff", backoff),
                )
                if value is not None
            }
            policy = RetryPolicy(**overrides)
        elif retries is not None or timeout_rounds is not None or backoff is not None:
            raise ValueError("pass either policy or its individual fields, not both")
        self.inner = inner
        self.policy = policy
        super().__init__(inner.topology, inner.codec, inner.metrics)
        self._round = 0
        self._next_transfer_id = 1
        self._outstanding: Dict[int, _Transfer] = {}
        self._failure_listeners: List[FailureListener] = []

    @classmethod
    def wrap(cls, inner: Network, policy: Optional[RetryPolicy] = None, **kwargs):
        """Layer reliability over an already-constructed transport."""
        return cls(inner=inner, policy=policy, **kwargs)

    # -- shared metrics ---------------------------------------------------------

    @property
    def metrics(self) -> NetworkMetrics:
        return self.inner.metrics

    @metrics.setter
    def metrics(self, value: NetworkMetrics) -> None:
        self.inner.metrics = value

    # -- wiring ------------------------------------------------------------------

    def attach(self, broker_id: int, handler) -> None:
        super().attach(broker_id, handler)
        self.inner.attach(broker_id, _Endpoint(self, broker_id))

    def add_failure_listener(self, listener: FailureListener) -> None:
        """Register a callback for transfers that exhaust their retries."""
        self._failure_listeners.append(listener)

    # -- sending ------------------------------------------------------------------

    def send(self, src: int, dst: int, message: Message) -> None:
        if isinstance(message, (AckMessage, ReliableDataMessage)):
            raise NetworkError("reliability frames are transport-internal")
        transfer_id = self._next_transfer_id
        self._next_transfer_id += 1
        frame = ReliableDataMessage(transfer_id=transfer_id, payload=message)
        self.inner.send(src, dst, frame)  # validates endpoints, charges bytes
        self._outstanding[transfer_id] = _Transfer(
            src, dst, frame, deadline=self._round + self.policy.timeout_for(0)
        )

    # -- receiving (called by _Endpoint during inner delivery) ---------------------

    def _handle_ack(self, ack: AckMessage) -> None:
        # Late or duplicated ACKs find nothing outstanding; that's fine.
        self._outstanding.pop(ack.transfer_id, None)

    def _handle_data(self, dst: int, src: int, frame: ReliableDataMessage) -> None:
        ack = AckMessage(transfer_id=frame.transfer_id)
        self.inner.send(dst, src, ack)
        self.metrics.record_ack(
            self.codec.size(ack) if self.codec is not None else 0,
            self.topology.path_length(dst, src),
        )
        # Duplicated frames (lossy duplication, or a retransmission racing
        # a lost ACK) are delivered again on purpose: at-least-once.  The
        # broker layer de-duplicates on publish id.
        self.handler(dst).receive(src, frame.payload)

    # -- delivery & timers ---------------------------------------------------------

    @property
    def has_pending(self) -> bool:
        return self.inner.has_pending or bool(self._outstanding)

    def step(self) -> int:
        """One round: deliver the inner batch, then service ACK timers.

        The round counter advances *before* delivery so that sends made
        inside receive handlers (the serial BROCLI chain re-forwarding an
        event, a broker acking a summary) are stamped with the round they
        were initiated in.  That makes the ACK round-trip a uniform two
        rounds for top-level and handler-initiated sends alike — with the
        counter advanced after delivery, chained sends aged one round at
        birth and any ``timeout_rounds <= 2`` retransmitted spuriously on
        perfectly healthy links.
        """
        self._round += 1
        self.rounds_run = self._round
        delivered = self.inner.step()
        self._service_timers()
        return delivered

    def _service_timers(self) -> None:
        expired = [
            transfer
            for transfer in self._outstanding.values()
            if transfer.deadline <= self._round
        ]
        for transfer in expired:
            if transfer.attempts < self.policy.retries:
                transfer.attempts += 1
                transfer.deadline = self._round + self.policy.timeout_for(
                    transfer.attempts
                )
                self.inner.send(transfer.src, transfer.dst, transfer.frame)
                self.metrics.record_retransmit(
                    self.codec.size(transfer.frame) if self.codec is not None else 0,
                    self.topology.path_length(transfer.src, transfer.dst),
                )
            else:
                del self._outstanding[transfer.frame.transfer_id]
                self.metrics.record_send_failure()
                for listener in self._failure_listeners:
                    listener(transfer.src, transfer.dst, transfer.frame.payload)

    def flush_iteration(self) -> int:
        """Propagation-iteration barrier: run until every transfer resolves.

        Algorithm 2's period must not end with summaries still in retry
        limbo (a late retransmission landing after ``finish_period`` would
        miss the period it was sent in: a delta is then rejected, a full
        summary lands straight in the kept summary), so the reliable
        barrier drains fully —
        same contract as :class:`TimedNetwork.flush_iteration`.
        """
        return self.run()

    def run(self, max_rounds: int = 100_000) -> int:
        """Step until quiet *and* no transfer is awaiting an ACK/retry."""
        rounds = 0
        while self.has_pending:
            if rounds >= max_rounds:
                raise NetworkError(
                    f"reliable network did not quiesce within {max_rounds} rounds "
                    f"({len(self._outstanding)} transfers outstanding)"
                )
            self.step()
            rounds += 1
        return rounds

    @property
    def outstanding_transfers(self) -> int:
        """Transfers currently awaiting an ACK (observability hook)."""
        return len(self._outstanding)

    def __repr__(self) -> str:
        return (
            f"ReliableNetwork({self.inner!r}, policy={self.policy}, "
            f"{len(self._outstanding)} outstanding)"
        )
