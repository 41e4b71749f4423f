"""Seeded inputs of the four perf-ledger workloads.

Every workload is a resident subscription population per broker plus a
pool of stock-schema event templates; the seed only permutes and jitters
inside a fixed, stratified design, so the properties the workload exists
for (deliveries per event, ids the hub matches, covering chains) hold for
every seed and the run-to-run spread measures the system, not the dice.

Events carry their sequence number in the ``when`` attribute, which no
subscription constrains: it makes every event unique on the wire (no
codec or match memo can hit across events) and lets the sink map a
NOTIFY back to the moment the event was due.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro.model.constraints import Constraint, Operator
from repro.model.events import Event
from repro.model.subscriptions import Subscription
from repro.model.types import AttributeType

__all__ = ["BROKERS", "HOME", "HUB", "INGRESS", "Inputs", "WORKLOADS", "Workload"]

#: ``line3`` roles.  The two leaves propagate to the hub and the hub to
#: nobody (Algorithm 2: no neighbour of equal-or-higher degree), so an
#: event published at INGRESS is matched against INGRESS's own residents,
#: then against all three populations at HUB, then rechecked at HOME.
INGRESS, HUB, HOME = 0, 1, 2
BROKERS = (INGRESS, HUB, HOME)

EXCHANGES = ("NYSE", "NASDAQ", "LSE", "ASE", "FWB", "TSE", "HKEX", "SIX")
MARKER_SYMBOL = "~MARK"
EVENT_POOL = 4096
#: Events per capacity-phase chunk; the last one of each chunk is a marker.
CHUNK = 64

_STRING, _FLOAT, _INT, _DATE = (
    AttributeType.STRING, AttributeType.FLOAT, AttributeType.INTEGER,
    AttributeType.DATE,
)
#: Two-attribute signatures that ride beside ``symbol`` in the match-heavy
#: populations: ten pairwise-incomparable attribute sets, so the covering
#: frontier scans a tenth of the population per subscribe.
_SIDE_ATTRIBUTES = ("exchange", "price", "volume", "high", "low")
_SIGNATURES = tuple(itertools.combinations(_SIDE_ATTRIBUTES, 2))
#: Range thresholds sit on a 16-step grid so the summary's interval rows
#: stay few (compile cost linear in ids) while each row still lists
#: hundreds of ids (match cost linear in ids — the paper's O(N) curve).
_GRID = 16


def exchange_of(symbol: str) -> str:
    """Every symbol lists on one exchange (stable across processes)."""
    return EXCHANGES[sum(symbol.encode()) % len(EXCHANGES)]


def _template(rng: random.Random, symbol: str) -> Tuple:
    price = round(rng.uniform(1.0, 999.0), 2)
    return (
        exchange_of(symbol), symbol, price, rng.randrange(100, 1_000_000),
        round(price * rng.uniform(1.0, 1.1), 2),
        round(price * rng.uniform(0.9, 1.0), 2),
    )


def _event(template: Tuple, seq: int) -> Event:
    exchange, symbol, price, volume, high, low = template
    return Event.from_typed({
        "exchange": (_STRING, exchange),
        "symbol": (_STRING, symbol),
        "when": (_DATE, float(seq)),
        "price": (_FLOAT, price),
        "volume": (_INT, volume),
        "high": (_FLOAT, high),
        "low": (_FLOAT, low),
    })


def _side_constraint(rng: random.Random, name: str, symbol: str) -> Constraint:
    """One grid-aligned side constraint that ~3/4 of the events of
    ``symbol`` satisfy (the exchange one: all of them)."""
    step = rng.randrange(_GRID)
    if name == "exchange":
        return Constraint.string("exchange", Operator.EQ, exchange_of(symbol))
    if name == "volume":
        return Constraint.arithmetic(
            "volume", Operator.GT, step * 500_000 // _GRID, _INT
        )
    if name == "low":  # floors for low, ceilings for price/high
        return Constraint.arithmetic("low", Operator.GT, step * 450.0 / _GRID)
    return Constraint.arithmetic(name, Operator.LT, 1100.0 - step * 550.0 / _GRID)


def _keyed_subscription(rng: random.Random, symbol: str, signature) -> Subscription:
    return Subscription(
        [Constraint.string("symbol", Operator.EQ, symbol)]
        + [_side_constraint(rng, name, symbol) for name in signature]
    )


def _keyed_population(rng: random.Random, symbols: Sequence[str], shift: int):
    """One subscription per symbol; symbol ``i`` takes signature
    ``(i + shift) mod 10`` so a churn subscription (shift 1) is never
    covered by the resident (shift 0) that names the same symbol."""
    return [
        _keyed_subscription(rng, symbol, _SIGNATURES[(i + shift) % len(_SIGNATURES)])
        for i, symbol in enumerate(symbols)
    ]


def _wire_residents(rng: random.Random, sigma: int) -> Tuple[Dict, List[str]]:
    """``sigma`` symbol watches per broker over a 4·sigma symbol universe:
    a quarter of the events reach each broker's consumers, one delivery
    each, and the summaries are too small for matching to cost anything."""
    symbols = [f"W{i:03d}" for i in range(4 * sigma)]
    rng.shuffle(symbols)
    residents = {
        broker: [
            Subscription([
                Constraint.string("symbol", Operator.EQ, symbol),
                Constraint.string("exchange", Operator.EQ, exchange_of(symbol)),
            ])
            for symbol in symbols[broker * sigma:(broker + 1) * sigma]
        ]
        for broker in BROKERS
    }
    return residents, symbols


def _keyed_residents(rng: random.Random, sigma: int) -> Tuple[Dict, List[str]]:
    """``sigma`` three-constraint subscriptions per broker, one per symbol,
    every broker over the same symbol universe: an event touches ~0.3 ids
    per resident id in the range tables and survives the conjunction at
    most once per broker."""
    symbols = [f"K{i:05d}" for i in range(sigma)]
    residents = {}
    for broker in BROKERS:
        order = symbols[:]
        rng.shuffle(order)
        residents[broker] = _keyed_population(rng, order, 0)
    return residents, symbols


def _fanout_residents(rng: random.Random, sigma: int) -> Tuple[Dict, List[str]]:
    """Broad subscriptions in covering chains: per exchange a ladder of
    price ceilings, plus symbol prefix and suffix families.  Subscribed in
    seeded order, so the covering frontier holds the running maxima of
    each chain and the rest are expanded at delivery."""
    symbols = ["".join(letters) for letters in itertools.product("ABCD", repeat=4)]
    families = (
        [s[:n] for n in (1, 2, 3) for s in sorted({s[:n] for s in symbols})],
        sorted({s[-2:] for s in symbols}),
    )
    ladder = (sigma - len(families[0]) - len(families[1])) // len(EXCHANGES)
    residents = {}
    for broker in BROKERS:
        subs = [
            Subscription([
                Constraint.string("exchange", Operator.EQ, exchange),
                Constraint.arithmetic(
                    "price", Operator.LT,
                    round(1000.0 * (rung + rng.random()) / ladder, 2),
                ),
            ])
            for exchange in EXCHANGES for rung in range(ladder)
        ]
        subs += [
            Subscription([Constraint.string("symbol", Operator.PREFIX, prefix)])
            for prefix in families[0]
        ]
        subs += [
            Subscription([Constraint.string("symbol", Operator.SUFFIX, suffix)])
            for suffix in families[1]
        ]
        rng.shuffle(subs)
        residents[broker] = subs
    return residents, symbols


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is written once, in BENCHMARK.json."""

    name: str
    #: Resident subscriptions per broker.
    sigma: int
    #: Paced-phase offered rate, frozen at about half the capacity the
    #: seed commit sustained on the 2-core reference box.
    rate_evps: int
    residents: Callable[[random.Random, int], Tuple[Dict, List[str]]]
    #: Subscribe/unsubscribe requests per second issued at the sink during
    #: both measured phases (0: read-only).
    churn_ops_per_s: int = 0


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("wire_bound", 16, 3000, _wire_residents),
        Workload("match_bound", 1000, 400, _keyed_residents),
        Workload("fanout_bound", 300, 600, _fanout_residents),
        Workload("churn_mixed", 500, 700, _keyed_residents, churn_ops_per_s=40),
    )
}


class Inputs:
    """Everything one run feeds the system, derived from the seed alone."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        rng = random.Random(f"{workload.name}/{seed}")
        self.residents, symbols = workload.residents(rng, workload.sigma)
        self._templates = [
            _template(rng, symbols[i % len(symbols)]) for i in range(EVENT_POOL)
        ]
        rng.shuffle(self._templates)
        self._marker_template = _template(rng, MARKER_SYMBOL)
        self.marker_subscription = Subscription(
            [Constraint.string("symbol", Operator.EQ, MARKER_SYMBOL)]
        )
        #: Matches no event and is covered by nothing, but names the
        #: attributes of every resident family, so registering it scans
        #: each covering group the workload populated.
        self.probe_subscription = Subscription([
            Constraint.string("symbol", Operator.EQ, "~PROBE"),
            Constraint.string("exchange", Operator.EQ, "~NONE"),
            Constraint.arithmetic("price", Operator.LT, 0.5),
        ])
        churn_symbols = symbols[:]
        rng.shuffle(churn_symbols)
        self._churn = (
            _keyed_population(rng, churn_symbols, 1)
            if workload.churn_ops_per_s else []
        )

    def event(self, seq: int) -> Event:
        return _event(self._templates[seq % EVENT_POOL], seq)

    def marker(self, seq: int) -> Event:
        return _event(self._marker_template, seq)

    def sent(self, seq: int) -> Event:
        """What the generator publishes under ``seq``: in every phase the
        last sequence number of each ``CHUNK`` is a marker (canaries, sent
        before sequence 0, are markers too)."""
        if seq < 0 or seq % CHUNK == CHUNK - 1:
            return self.marker(seq)
        return self.event(seq)

    def churn_subscription(self, index: int) -> Subscription:
        return self._churn[index % len(self._churn)]

    def op_stream_hash(self) -> str:
        """Digest of every input the run will feed the brokers."""
        digest = hashlib.sha256()
        for broker in BROKERS:
            for subscription in self.residents[broker]:
                digest.update(str(subscription).encode())
        for subscription in self._churn:
            digest.update(str(subscription).encode())
        for seq in range(-1, 2 * EVENT_POOL):
            digest.update(repr(self.sent(seq)).encode())
        return digest.hexdigest()
