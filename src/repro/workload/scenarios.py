"""Production scenario driver: named workloads over simulator and cluster.

The paper's evaluation (and our reproduction of it through the Table-2
generator) exercises *static* subscription populations against a healthy
backbone.  Production pub/sub lives elsewhere: subscribers churn, load
spikes and breathes diurnally, a few topics soak most of the traffic,
brokers die mid-frame and rejoin.  This module turns those regimes into
**named, seeded scenarios** that run — from one ``ScenarioConfig`` — against
both the in-process simulator (:class:`repro.broker.system.SummaryPubSub`)
and the live asyncio cluster (:class:`repro.runtime.cluster.LocalCluster`,
via :mod:`repro.runtime.chaos`), and that are *checkable*: every scenario
compiles to a deterministic :class:`ScenarioScript` whose churn-aware
oracle (:func:`expected_deliveries`) knows each subscription's live window,
including windows truncated by chaos (broker kills, cold rejoins).

Structure
---------

``ScenarioConfig``
    duration (steps), target QPS, operation mix, seed, workload kind, load
    profile, popularity skew, and a declarative chaos schedule
    (:class:`ChaosEvent`).
``build_script(config)``
    resolves the config into a fully deterministic operation stream —
    per-step churn ops, publish records (dead-broker publishes re-homed at
    build time), and chaos events.  The same script drives both
    substrates, which is what makes simulator-vs-live parity a
    set-equality assertion.
``expected_deliveries(script, honor_chaos=...)``
    the oracle: ``{(publish_serial, sub_serial)}`` pairs that a correct
    system must deliver.  ``honor_chaos=True`` applies kill/restart
    windows (a cold-killed subscription stays dead; a
    restored-from-snapshot one is merely suspended while its broker is
    down); ``honor_chaos=False`` is the no-fault baseline the simulator
    must match exactly.
``run_scenario_sim(config)``
    executes the script on the simulator and returns a
    :class:`ScenarioOutcome` (the live twin is
    :func:`repro.runtime.chaos.run_scenario_live`).
``SCENARIOS``
    the named registry: flash-crowd spikes, churn storms, diurnal curves,
    skewed topic popularity, mixed IoT/news/ticker schemas, and the
    kill/restart ``failover`` drill.

Each scenario *step* is one coordinated beat: chaos first (live only),
then churn, then one propagation period, then the step's publishes, then a
settle barrier.  One period per step suffices for exactness — the
propagation algorithm folds every pending subscription into the kept
summaries before any of the step's events route (verified against
``ground_truth_matches`` on line/tree/cw24 backbones).
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Set, Tuple

from repro.broker.system import SummaryPubSub
from repro.model.constraints import Constraint, Operator
from repro.model.events import Event
from repro.model.ids import SubscriptionId
from repro.model.schema import Schema
from repro.model.subscriptions import Subscription
from repro.model.types import AttributeType
from repro.network.backbone import named_topology
from repro.network.topology import Topology
from repro.workload.distributions import weighted_choice, zipf_rank
from repro.workload.stocks import StockWorkload
from repro.wire.codec import ValueWidth

__all__ = [
    "ChaosEvent",
    "MixedSchemaWorkload",
    "PubRecord",
    "SCENARIOS",
    "ScenarioConfig",
    "ScenarioOutcome",
    "ScenarioScript",
    "SubRecord",
    "build_script",
    "chaos_schedules",
    "expected_deliveries",
    "run_scenario_sim",
    "scenario_config",
]

_OPS = ("publish", "subscribe", "unsubscribe")


# -- chaos schedule -------------------------------------------------------------


@dataclass(frozen=True)
class ChaosEvent:
    """One declarative fault, executed at the *start* of ``step``.

    ``kill``
        abrupt crash of ``broker`` — no drain, sockets torn mid-frame.
        ``snapshot=True`` persists the broker's state immediately before
        the kill (modelling a periodic snapshotter that had just run), so
        a later warm ``restart`` can restore it.
    ``restart``
        boot a fresh incarnation of ``broker`` on a *new* port.
        ``restore=True`` warm-starts from the snapshot taken by the
        matching kill; otherwise the broker cold-rejoins empty.
    ``flap``
        sever the live TCP connections on the ``broker``–``peer`` link in
        both directions; the lazy writers redial on the next frame.
    """

    step: int
    action: str  # "kill" | "restart" | "flap"
    broker: int
    snapshot: bool = False
    restore: bool = False
    peer: Optional[int] = None


# -- configuration --------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioConfig:
    """One runnable scenario, complete and substrate-agnostic.

    ``mix`` is stored as ``(op, weight)`` pairs so the config stays
    hashable/frozen; :meth:`mix_weights` gives the dict view.  ``steps`` ×
    ``step_seconds`` is the nominal duration; per-step operation counts
    are ``target_qps * step_seconds`` scaled by the load profile
    (``flat``, ``spike`` — ``spike_factor`` over the middle third — or
    ``diurnal``, a half-sine day curve).  ``popularity_skew > 0`` draws
    publish symbols zipf-distributed with that exponent instead of
    uniformly.
    """

    name: str
    topology: str = "tree13"
    seed: int = 0
    steps: int = 6
    target_qps: float = 36.0
    step_seconds: float = 1.0
    mix: Tuple[Tuple[str, float], ...] = (
        ("publish", 0.7),
        ("subscribe", 0.2),
        ("unsubscribe", 0.1),
    )
    initial_subscriptions: int = 3
    workload: str = "stocks"  # "stocks" | "mixed"
    load_profile: str = "flat"  # "flat" | "spike" | "diurnal"
    spike_factor: float = 4.0
    popularity_skew: float = 0.0
    chaos: Tuple[ChaosEvent, ...] = ()

    def with_overrides(self, **changes) -> "ScenarioConfig":
        if "mix" in changes and isinstance(changes["mix"], Mapping):
            changes["mix"] = tuple(changes["mix"].items())
        return dataclasses.replace(self, **changes)

    def mix_weights(self) -> Dict[str, float]:
        weights = {op: 0.0 for op in _OPS}
        weights.update(dict(self.mix))
        return weights

    def load_factor(self, step: int) -> float:
        if self.load_profile == "flat":
            return 1.0
        if self.load_profile == "spike":
            third = max(1, self.steps // 3)
            return self.spike_factor if third <= step < 2 * third else 1.0
        if self.load_profile == "diurnal":
            return 0.25 + 0.75 * math.sin(math.pi * (step + 0.5) / self.steps)
        raise ValueError(f"unknown load profile {self.load_profile!r}")

    def ops_at(self, step: int) -> int:
        return max(1, round(self.target_qps * self.step_seconds * self.load_factor(step)))


def scenario_config(name: str, **overrides) -> ScenarioConfig:
    """Instantiate a named scenario from :data:`SCENARIOS`, with overrides."""
    try:
        config = SCENARIOS[name]()
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r} (have: {', '.join(sorted(SCENARIOS))})"
        ) from None
    return config.with_overrides(**overrides) if overrides else config


# -- the mixed IoT / news / ticker schema ---------------------------------------

_IOT_DEVICES = ("thermo-1", "thermo-2", "thermo-3", "thermo-4", "hygro-1", "hygro-2")
_IOT_SENSORS = ("temp", "humidity", "co2")
_NEWS_TOPICS = ("markets", "tech", "sports", "politics", "weather")
_NEWS_SOURCES = ("reuters", "ap", "afp", "bbc")
_NEWS_REGIONS = ("eu", "us", "apac")


def mixed_schema() -> Schema:
    """Stock ticker ∪ IoT telemetry ∪ news alert attributes, one schema.

    Events carry only their family's attributes (plus the shared ``when``
    clock); :meth:`Schema.validate_event` accepts partial events, and
    matching requires every constrained attribute to be present — so a
    news subscription can never fire on a stock tick.
    """
    return Schema.of(
        # ticker family (repro.model.stock_schema order)
        exchange=AttributeType.STRING,
        symbol=AttributeType.STRING,
        when=AttributeType.DATE,
        price=AttributeType.FLOAT,
        volume=AttributeType.INTEGER,
        high=AttributeType.FLOAT,
        low=AttributeType.FLOAT,
        # IoT telemetry family
        device=AttributeType.STRING,
        sensor=AttributeType.STRING,
        temperature=AttributeType.FLOAT,
        battery=AttributeType.INTEGER,
        # news alert family
        topic=AttributeType.STRING,
        source=AttributeType.STRING,
        urgency=AttributeType.INTEGER,
        region=AttributeType.STRING,
    )


class MixedSchemaWorkload:
    """Heterogeneous S-ToPSS-style traffic: tickers + IoT + news in one feed.

    Family picks, templates and values are all driven by one seeded RNG;
    the stock family delegates to :class:`StockWorkload` (sharing its
    price walks), so ``tick(symbol=...)`` still supports popularity skew.
    Every event includes a strictly monotone ``when`` so event identity is
    unique across the run — the scenario runners key deliveries by event.
    """

    _FAMILIES = ("stocks", "iot", "news")
    _WEIGHTS = (0.4, 0.3, 0.3)

    def __init__(self, seed: int = 0):
        self.schema: Schema = mixed_schema()
        self._rng = random.Random(f"mixed:{seed}")
        self._stocks = StockWorkload(seed=seed)
        self.symbols = self._stocks.symbols
        # Offset from StockWorkload's clock so the two never collide.
        self._clock = 2_000_000_000.0

    # -- subscriptions ----------------------------------------------------------

    def subscription(self) -> Subscription:
        family = weighted_choice(self._rng, self._FAMILIES, self._WEIGHTS)
        if family == "stocks":
            return self._stocks.subscription()
        if family == "iot":
            return self._iot_subscription()
        return self._news_subscription()

    def _iot_subscription(self) -> Subscription:
        rng = self._rng
        if rng.random() < 0.5:
            prefix = rng.choice(("thermo", "hygro", "th"))
            return Subscription(
                [
                    Constraint.string("device", Operator.PREFIX, prefix),
                    Constraint.arithmetic(
                        "temperature", Operator.GT, round(rng.uniform(5.0, 30.0), 1)
                    ),
                ]
            )
        return Subscription(
            [
                Constraint.string("sensor", Operator.EQ, rng.choice(_IOT_SENSORS)),
                Constraint(
                    "battery", AttributeType.INTEGER, Operator.LT, rng.randrange(20, 80)
                ),
            ]
        )

    def _news_subscription(self) -> Subscription:
        rng = self._rng
        if rng.random() < 0.5:
            return Subscription(
                [
                    Constraint.string("topic", Operator.EQ, rng.choice(_NEWS_TOPICS)),
                    Constraint(
                        "urgency", AttributeType.INTEGER, Operator.GT, rng.randrange(1, 8)
                    ),
                ]
            )
        return Subscription(
            [
                Constraint.string("region", Operator.EQ, rng.choice(_NEWS_REGIONS)),
                Constraint.string(
                    "source", Operator.PREFIX, rng.choice(_NEWS_SOURCES)[:3]
                ),
            ]
        )

    # -- events -----------------------------------------------------------------

    def tick(self, symbol: Optional[str] = None) -> Event:
        family = weighted_choice(self._rng, self._FAMILIES, self._WEIGHTS)
        if family == "stocks" or symbol is not None:
            return self._stocks.tick(symbol)
        if family == "iot":
            return self._iot_event()
        return self._news_event()

    def _next_when(self) -> float:
        self._clock += self._rng.uniform(0.05, 2.0)
        return self._clock

    def _iot_event(self) -> Event:
        rng = self._rng
        return Event.from_pairs(
            [
                ("device", AttributeType.STRING, rng.choice(_IOT_DEVICES)),
                ("sensor", AttributeType.STRING, rng.choice(_IOT_SENSORS)),
                ("when", AttributeType.DATE, self._next_when()),
                ("temperature", AttributeType.FLOAT, round(rng.uniform(-5.0, 40.0), 1)),
                ("battery", AttributeType.INTEGER, rng.randrange(0, 101)),
            ]
        )

    def _news_event(self) -> Event:
        rng = self._rng
        return Event.from_pairs(
            [
                ("topic", AttributeType.STRING, rng.choice(_NEWS_TOPICS)),
                ("source", AttributeType.STRING, rng.choice(_NEWS_SOURCES)),
                ("when", AttributeType.DATE, self._next_when()),
                ("urgency", AttributeType.INTEGER, rng.randrange(1, 11)),
                ("region", AttributeType.STRING, rng.choice(_NEWS_REGIONS)),
            ]
        )


def make_workload(config: ScenarioConfig):
    if config.workload == "stocks":
        return StockWorkload(seed=config.seed)
    if config.workload == "mixed":
        return MixedSchemaWorkload(seed=config.seed)
    raise ValueError(f"unknown workload kind {config.workload!r}")


# -- the compiled script --------------------------------------------------------


@dataclass
class SubRecord:
    """One subscription's lifetime in the scenario timeline.

    ``skipped`` subscriptions targeted a dead broker and were never
    installed anywhere.  ``unsub_step`` is set only for *effective*
    unsubscribes — an unsubscribe op aimed at a dead broker is recorded as
    a skipped :class:`ChurnOp` and leaves the nominal window open.
    """

    serial: int
    broker: int
    subscription: Subscription
    step: int
    unsub_step: Optional[int] = None
    skipped: bool = False


@dataclass(frozen=True)
class PubRecord:
    """One publish: ``broker`` is post-redirect (always alive at ``step``)."""

    serial: int
    broker: int
    event: Event
    step: int


@dataclass(frozen=True)
class ChurnOp:
    kind: str  # "subscribe" | "unsubscribe"
    serial: int
    skipped: bool = False


@dataclass(frozen=True)
class ScenarioStep:
    index: int
    chaos: Tuple[ChaosEvent, ...]
    churn: Tuple[ChurnOp, ...]
    publishes: Tuple[PubRecord, ...]


# (kill_step, restart_step — math.inf if never restarted, warm?)
DeadWindow = Tuple[int, float, bool]


@dataclass
class ScenarioScript:
    """The fully resolved, deterministic operation stream of one scenario."""

    config: ScenarioConfig
    topology: Topology
    schema: Schema
    subs: Dict[int, SubRecord]
    pubs: List[PubRecord]
    steps: List[ScenarioStep]
    windows: Dict[int, List[DeadWindow]]
    skipped_ops: int = 0

    @property
    def churn_ops(self) -> int:
        return sum(len(step.churn) for step in self.steps)

    def broker_alive(self, broker: int, step: int) -> bool:
        return not any(ks <= step < rs for ks, rs, _ in self.windows.get(broker, ()))

    def live_for(self, record: SubRecord, step: int, honor_chaos: bool = True) -> bool:
        """Is ``record`` deliverable for publishes of ``step``?

        Chaos semantics: a kill at step *k* snapshots (if at all) before
        that step's churn, so only subscriptions installed at steps < *k*
        are on the snapshot.  A cold restart (or no restart) loses them
        permanently; a warm restart merely suspends them for the dead
        window.  Subscriptions whose subscribe op was skipped (owner dead)
        never existed on any substrate.
        """
        if record.skipped or record.step > step:
            return False
        if record.unsub_step is not None and record.unsub_step <= step:
            return False
        if not honor_chaos:
            return True
        for kill_step, restart_step, warm in self.windows.get(record.broker, ()):
            if record.step < kill_step:
                if not warm and step >= kill_step:
                    return False
                if warm and kill_step <= step < restart_step:
                    return False
        return True


def _compile_windows(config: ScenarioConfig, topology: Topology) -> Dict[int, List[DeadWindow]]:
    """Validate the chaos schedule and compile per-broker dead windows."""
    brokers = set(topology.brokers)
    windows: Dict[int, List[DeadWindow]] = {}
    open_kill: Dict[int, ChaosEvent] = {}

    def alive(broker: int, step: int) -> bool:
        return not any(ks <= step < rs for ks, rs, _ in windows.get(broker, ()))

    for event in sorted(config.chaos, key=lambda e: e.step):
        if not 1 <= event.step < config.steps:
            raise ValueError(
                f"chaos step {event.step} outside [1, {config.steps}) — step 0 "
                "bootstraps the initial population"
            )
        if event.broker not in brokers:
            raise ValueError(f"chaos targets unknown broker {event.broker}")
        if event.action == "kill":
            if event.broker in open_kill or not alive(event.broker, event.step):
                raise ValueError(f"broker {event.broker} is already dead at step {event.step}")
            open_kill[event.broker] = event
            windows.setdefault(event.broker, []).append((event.step, math.inf, False))
        elif event.action == "restart":
            kill = open_kill.pop(event.broker, None)
            if kill is None:
                raise ValueError(f"restart of broker {event.broker} without a prior kill")
            if event.step <= kill.step:
                raise ValueError("restart must come at a later step than its kill")
            if event.restore and not kill.snapshot:
                raise ValueError(
                    f"restore of broker {event.broker} requires snapshot=True on its kill"
                )
            windows[event.broker][-1] = (kill.step, event.step, event.restore)
        elif event.action == "flap":
            if event.peer is None or not topology.graph.has_edge(event.broker, event.peer):
                raise ValueError(
                    f"flap needs a topology edge, got {event.broker}–{event.peer}"
                )
            if not (alive(event.broker, event.step) and alive(event.peer, event.step)):
                raise ValueError("flap endpoints must both be alive")
        else:
            raise ValueError(f"unknown chaos action {event.action!r}")

    for step in range(config.steps):
        if not any(alive(broker, step) for broker in brokers):
            raise ValueError(f"no broker alive at step {step}")
    return windows


def build_script(config: ScenarioConfig) -> ScenarioScript:
    """Compile a config into the deterministic per-step operation stream.

    Everything chaos-dependent is resolved *here*, from the declarative
    schedule: churn ops addressed to dead brokers are marked skipped (both
    substrates drop them identically), publishes at dead brokers are
    re-homed to the next live broker in id order (matching is
    location-independent, so this changes routing but not the oracle).
    The same config therefore produces byte-identical operation streams
    for the simulator and the live cluster — the parity contract.
    """
    topology = named_topology(config.topology)
    workload = make_workload(config)
    weights = config.mix_weights()
    if any(weights[op] < 0 for op in _OPS) or weights["publish"] <= 0:
        raise ValueError(f"bad operation mix {config.mix!r}")
    windows = _compile_windows(config, topology)
    rng = random.Random(f"ops:{config.name}:{config.seed}")
    brokers = sorted(topology.brokers)
    chaos_by_step: Dict[int, List[ChaosEvent]] = {}
    for event in sorted(config.chaos, key=lambda e: e.step):
        chaos_by_step.setdefault(event.step, []).append(event)

    script = ScenarioScript(
        config=config, topology=topology, schema=workload.schema,
        subs={}, pubs=[], steps=[], windows=windows,
    )

    def alive(broker: int, step: int) -> bool:
        return script.broker_alive(broker, step)

    def redirect(broker: int, step: int) -> int:
        if alive(broker, step):
            return broker
        start = brokers.index(broker)
        for offset in range(1, len(brokers) + 1):
            candidate = brokers[(start + offset) % len(brokers)]
            if alive(candidate, step):
                return candidate
        raise AssertionError("unreachable: _compile_windows guarantees a live broker")

    unsub_pool: List[int] = []  # serials never yet targeted by an unsubscribe

    def subscribe_op(step: int, broker: int) -> ChurnOp:
        serial = len(script.subs)
        record = SubRecord(
            serial=serial, broker=broker, subscription=workload.subscription(),
            step=step, skipped=not alive(broker, step),
        )
        script.subs[serial] = record
        if not record.skipped:
            unsub_pool.append(serial)
        else:
            script.skipped_ops += 1
        return ChurnOp("subscribe", serial, record.skipped)

    def unsubscribe_op(step: int) -> Optional[ChurnOp]:
        if not unsub_pool:
            return None
        serial = unsub_pool.pop(rng.randrange(len(unsub_pool)))
        record = script.subs[serial]
        # Unreachable owner (dead now) or a subscription already lost to a
        # cold kill: the op can't execute anywhere — record it skipped.
        skipped = not alive(record.broker, step) or not script.live_for(record, step)
        if skipped:
            script.skipped_ops += 1
        else:
            record.unsub_step = step
        return ChurnOp("unsubscribe", serial, skipped)

    def publish_op(step: int) -> PubRecord:
        target = redirect(rng.choice(brokers), step)
        if config.popularity_skew > 0:
            symbol = workload.symbols[
                zipf_rank(rng, len(workload.symbols), config.popularity_skew)
            ]
            event = workload.tick(symbol)
        else:
            event = workload.tick()
        record = PubRecord(serial=len(script.pubs), broker=target, event=event, step=step)
        script.pubs.append(record)
        return record

    for step in range(config.steps):
        churn: List[ChurnOp] = []
        publishes: List[PubRecord] = []
        if step == 0:
            for broker in brokers:
                for _ in range(config.initial_subscriptions):
                    churn.append(subscribe_op(0, broker))
        for _ in range(config.ops_at(step)):
            kind = weighted_choice(rng, _OPS, [weights[op] for op in _OPS])
            if kind == "publish":
                publishes.append(publish_op(step))
            elif kind == "subscribe":
                churn.append(subscribe_op(step, rng.choice(brokers)))
            else:
                op = unsubscribe_op(step)
                if op is not None:
                    churn.append(op)
        script.steps.append(
            ScenarioStep(
                index=step,
                chaos=tuple(chaos_by_step.get(step, ())),
                churn=tuple(churn),
                publishes=tuple(publishes),
            )
        )

    events = [pub.event for pub in script.pubs]
    if len(set(events)) != len(events):
        raise AssertionError("scenario events must be unique (runners key by event)")
    return script


# -- the oracle -----------------------------------------------------------------


def expected_deliveries(
    script: ScenarioScript, honor_chaos: bool = True
) -> Set[Tuple[int, int]]:
    """``{(publish_serial, sub_serial)}`` a correct run must deliver.

    Brute force over raw :meth:`Subscription.matches` — no summaries, no
    routing — restricted to each subscription's live window.  With
    ``honor_chaos`` the window additionally excludes dead-broker spans and
    cold-kill truncation; without it, it is the no-fault baseline the
    simulator run must match *exactly* (ratio 1.0, zero extras).
    """
    expected: Set[Tuple[int, int]] = set()
    records = list(script.subs.values())
    for pub in script.pubs:
        for record in records:
            if script.live_for(record, pub.step, honor_chaos) and record.subscription.matches(pub.event):
                expected.add((pub.serial, record.serial))
    return expected


# -- outcomes -------------------------------------------------------------------


@dataclass
class ScenarioOutcome:
    """What one scenario run produced, against what the oracle demanded."""

    scenario: str
    substrate: str  # "sim" | "live"
    expected: Set[Tuple[int, int]]
    achieved: Set[Tuple[int, int]]
    duplicates: int
    publishes: int
    churn_ops: int
    skipped_ops: int
    frames_balance: Optional[Tuple[int, int]] = None  # live: (enqueued_net, processed)
    metrics: Dict[str, int] = field(default_factory=dict)

    @property
    def delivered(self) -> int:
        return len(self.achieved & self.expected)

    @property
    def delivery_ratio(self) -> float:
        if not self.expected:
            return 1.0
        return self.delivered / len(self.expected)

    @property
    def extras(self) -> Set[Tuple[int, int]]:
        return self.achieved - self.expected

    @property
    def missing(self) -> Set[Tuple[int, int]]:
        return self.expected - self.achieved


# -- the simulator runner -------------------------------------------------------


def run_scenario_sim(config: ScenarioConfig) -> ScenarioOutcome:
    """Execute the script on :class:`SummaryPubSub`; chaos steps are inert.

    The simulator has no processes to kill, so chaos shows up only through
    the script (skipped ops, re-homed publishes); the outcome is gated
    against the ``honor_chaos=False`` oracle and must match it exactly.
    """
    script = build_script(config)
    system = SummaryPubSub(
        script.topology, script.schema, value_width=ValueWidth.F64
    )
    sid_by_serial: Dict[int, SubscriptionId] = {}
    serial_by_sid: Dict[Tuple[int, SubscriptionId], int] = {}
    event_serial = {pub.event: pub.serial for pub in script.pubs}
    achieved: Set[Tuple[int, int]] = set()
    duplicates = 0

    for step in script.steps:
        for op in step.churn:
            if op.skipped:
                continue
            record = script.subs[op.serial]
            if op.kind == "subscribe":
                sid = system.subscribe(record.broker, record.subscription)
                sid_by_serial[op.serial] = sid
                serial_by_sid[(record.broker, sid)] = op.serial
            else:
                system.unsubscribe(record.broker, sid_by_serial[op.serial])
        system.run_propagation_period()
        for pub in step.publishes:
            result = system.publish(pub.broker, pub.event)
            for delivery in result.deliveries:
                key = (event_serial[delivery.event], serial_by_sid[(delivery.broker, delivery.sid)])
                if key in achieved:
                    duplicates += 1
                else:
                    achieved.add(key)

    return ScenarioOutcome(
        scenario=config.name,
        substrate="sim",
        expected=expected_deliveries(script, honor_chaos=False),
        achieved=achieved,
        duplicates=duplicates,
        publishes=len(script.pubs),
        churn_ops=script.churn_ops,
        skipped_ops=script.skipped_ops,
        metrics={
            "events_examined": sum(b.events_examined for b in system.brokers.values()),
        },
    )


# -- randomized chaos schedules -------------------------------------------------


def chaos_schedules(
    topology_name: str = "line5",
    steps: int = 6,
    max_cycles: int = 2,
    max_flaps: int = 2,
):
    """A Hypothesis strategy drawing *valid* chaos schedules.

    Draws are correct by construction — ``restore`` only when the kill
    snapshotted, flaps only on real topology edges between endpoints alive
    at the flap step — and every draw is still pushed through
    :func:`_compile_windows` as a safety net (a residual invalid draw is
    rejected with ``assume``, never returned).

    Kill/restart windows are *closed* (every kill gets a restart) and
    *pairwise disjoint* (at most one broker dead at any step): that is the
    single-failure regime the live delivery gate is defined for.  Wider
    havoc — overlapping dead windows, permanent kills — partitions the
    overlay in ways the churn-aware oracle deliberately does not model
    (interest born on the far side of a partition cannot propagate until
    it heals); such schedules stay expressible by hand and are exercised
    by the sim-exact suite, which executes any compilable script.

    Returns a strategy over ``Tuple[ChaosEvent, ...]`` suitable for
    ``ScenarioConfig.with_overrides(chaos=...)``.  Hypothesis is imported
    lazily so this module stays importable in production environments
    without test dependencies.
    """
    from hypothesis import assume, strategies as st

    topology = named_topology(topology_name)
    brokers = sorted(topology.brokers)
    edges = sorted(
        (min(a, b), max(a, b)) for a, b in topology.graph.edges
    )
    # Each cycle consumes two distinct steps in [1, steps), so the step
    # budget bounds how many disjoint windows can exist at all.
    cycle_cap = min(max_cycles, len(brokers), (steps - 1) // 2)

    @st.composite
    def schedules(draw):
        events: List[ChaosEvent] = []
        windows: Dict[int, Tuple[int, float]] = {}
        cycles = draw(st.integers(0, cycle_cap))
        if cycles:
            bounds = sorted(
                draw(
                    st.lists(
                        st.integers(1, steps - 1),
                        min_size=2 * cycles, max_size=2 * cycles, unique=True,
                    )
                )
            )
            targets = draw(
                st.lists(
                    st.sampled_from(brokers),
                    min_size=cycles, max_size=cycles, unique=True,
                )
            )
            for index, broker in enumerate(targets):
                kill_step, restart_step = bounds[2 * index], bounds[2 * index + 1]
                snapshot = draw(st.booleans())
                restore = snapshot and draw(st.booleans())
                events.append(
                    ChaosEvent(
                        step=kill_step, action="kill", broker=broker,
                        snapshot=snapshot,
                    )
                )
                events.append(
                    ChaosEvent(
                        step=restart_step, action="restart", broker=broker,
                        restore=restore,
                    )
                )
                windows[broker] = (kill_step, restart_step)

        def alive_at(broker: int, step: int) -> bool:
            window = windows.get(broker)
            return window is None or not (window[0] <= step < window[1])

        for _ in range(draw(st.integers(0, max_flaps))):
            a, b = draw(st.sampled_from(edges))
            step = draw(st.integers(1, steps - 1))
            if alive_at(a, step) and alive_at(b, step):
                events.append(
                    ChaosEvent(step=step, action="flap", broker=a, peer=b)
                )

        schedule = tuple(sorted(events, key=lambda e: (e.step, e.action, e.broker)))
        probe = ScenarioConfig(
            name="chaos_probe", topology=topology_name, steps=steps,
            chaos=schedule,
        )
        try:
            _compile_windows(probe, topology)
        except ValueError:
            assume(False)
        return schedule

    return schedules()


# -- the named registry ---------------------------------------------------------


def _flash_crowd() -> ScenarioConfig:
    return ScenarioConfig(
        name="flash_crowd", topology="tree13", steps=6, target_qps=30.0,
        mix=(("publish", 0.85), ("subscribe", 0.10), ("unsubscribe", 0.05)),
        load_profile="spike", spike_factor=4.0,
    )


def _churn_storm() -> ScenarioConfig:
    return ScenarioConfig(
        name="churn_storm", topology="tree13", steps=6, target_qps=36.0,
        mix=(("publish", 0.40), ("subscribe", 0.35), ("unsubscribe", 0.25)),
        initial_subscriptions=4,
    )


def _diurnal() -> ScenarioConfig:
    return ScenarioConfig(
        name="diurnal", topology="tree13", steps=8, target_qps=30.0,
        load_profile="diurnal",
    )


def _hot_topics() -> ScenarioConfig:
    return ScenarioConfig(
        name="hot_topics", topology="tree13", steps=6, target_qps=36.0,
        popularity_skew=1.2,
    )


def _multi_schema() -> ScenarioConfig:
    return ScenarioConfig(
        name="multi_schema", topology="tree13", steps=6, target_qps=36.0,
        workload="mixed", initial_subscriptions=4,
    )


def _failover() -> ScenarioConfig:
    """Two abrupt kill/restart cycles on a line — the acceptance drill.

    Broker 2 (the middle of ``line5``, on every cross-cluster path) dies
    twice without drain and warm-restarts from its pre-kill snapshot on a
    fresh port each time; the delivery-ratio gate (≥ 0.99 vs the
    churn-aware oracle, zero duplicates) must hold throughout.
    """
    return ScenarioConfig(
        name="failover", topology="line5", steps=6, target_qps=30.0,
        mix=(("publish", 0.50), ("subscribe", 0.30), ("unsubscribe", 0.20)),
        initial_subscriptions=4,
        chaos=(
            ChaosEvent(step=1, action="kill", broker=2, snapshot=True),
            ChaosEvent(step=2, action="restart", broker=2, restore=True),
            ChaosEvent(step=3, action="kill", broker=2, snapshot=True),
            ChaosEvent(step=4, action="restart", broker=2, restore=True),
        ),
    )


SCENARIOS: Dict[str, Callable[[], ScenarioConfig]] = {
    "flash_crowd": _flash_crowd,
    "churn_storm": _churn_storm,
    "diurnal": _diurnal,
    "hot_topics": _hot_topics,
    "multi_schema": _multi_schema,
    "failover": _failover,
}
