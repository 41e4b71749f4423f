"""Hypothesis differential: delta-propagated backbone ≡ full-summary one.

Two identical systems — one shipping :class:`SummaryDeltaMessage` frames,
one the classic full-summary frames — run the same churn script (arrivals,
departures, and *mid-period* arrivals and departures injected before or
between Algorithm-2 iterations, so some brokers have acted and others
not) with paranoid audits on.  Equivalence claims:

* ``Merged_Brokers`` identical everywhere (the delta frame carries the
  same broker sets);
* kept summaries agree on every *live* id (delta mode additionally sheds
  dead ids incrementally, so its kept sets are a subset of full mode's);
* per-consumer deliveries identical and equal to the ground-truth oracle.
"""

import os

from hypothesis import example, given, settings, strategies as st

from repro.broker.system import SummaryPubSub
from repro.model import Event, parse_subscription, stock_schema
from repro.network import paper_example_tree

SCHEMA = stock_schema()

POOL = [
    parse_subscription(SCHEMA, text)
    for text in (
        "price < 20",
        "price < 10",
        "price < 5",
        "price < 10 AND symbol = OTE",
        "volume > 1000",
        "volume > 5000",
        "symbol = OTE",
        "price > 2 AND price < 12",
    )
]

PROBES = [
    Event.of(price=3.0),
    Event.of(price=7.0, symbol="OTE"),
    Event.of(price=15.0),
    Event.of(volume=6000),
    Event.of(price=11.0, volume=1500),
]

period_ops = st.lists(
    st.one_of(
        st.tuples(st.just("sub"), st.integers(0, 400), st.integers(0, len(POOL) - 1)),
        st.tuples(st.just("unsub"), st.integers(0, 400), st.just(0)),
    ),
    max_size=10,
)

churn_script = st.lists(
    # (before-period ops, mid-period ops, degree classes acted before them)
    st.tuples(period_ops, period_ops, st.integers(0, 3)),
    min_size=1,
    max_size=3,
)

EXAMPLES = int(os.environ.get("COMPILED_DIFF_EXAMPLES", "25"))


def apply_ops(system, ops, live):
    brokers = sorted(system.topology.brokers)
    for op, arg, pool_index in ops:
        if op == "sub":
            broker_id = brokers[arg % len(brokers)]
            live.append((broker_id, system.subscribe(broker_id, POOL[pool_index])))
        elif op == "unsub" and live:
            broker_id, sid = live.pop(arg % len(live))
            assert system.unsubscribe(broker_id, sid)


def run_period_with_midperiod_ops(system, mid_ops, live, acted=1):
    """The engine's period body with ``mid_ops`` injected once the first
    ``acted`` degree classes have acted — the window run_propagation_period
    can't reach.  Returns whether a subscription arrived after its broker
    acted (it waits, pending, for the next period)."""
    engine = system.propagation
    topology = system.network.topology
    system.network.metrics = system.propagation_metrics
    for broker in system.brokers.values():
        broker.begin_period()
    acted = min(acted, topology.max_degree)
    late = False

    def inject():
        before = {b: len(broker.pending) for b, broker in system.brokers.items()}
        apply_ops(system, mid_ops, live)
        return any(
            len(broker.pending) > before[b] and broker.period.acted
            for b, broker in system.brokers.items()
        )

    if acted == 0:
        late = inject()
    for iteration in range(1, topology.max_degree + 1):
        for broker_id in topology.brokers_by_degree(iteration):
            engine.cores[broker_id].act()
        if iteration == acted:
            late = inject()
        system.network.flush_iteration()
    for _ in range(2 * len(system.brokers) + 2):
        if not system.network.has_pending:
            break
        system.network.flush_iteration()
    for core in engine.cores.values():
        core.finish_period()
    engine.periods_run += 1
    return late


def live_ids(system):
    return {
        sid for broker in system.brokers.values() for sid in broker.store.ids()
    }


def kept_ids(system, broker_id):
    return set(system.brokers[broker_id].kept_summary.all_ids())


@given(script=churn_script)
@settings(max_examples=EXAMPLES, deadline=None)
# Two identical subscriptions, then an unsubscribe of the one that
# propagated: the covered twin must inherit the dead coverer's remote
# notifications (the ghost-coverer regression in SummaryBroker.deliver).
@example(script=[([("sub", 0, 0), ("sub", 0, 0)], [("unsub", 0, 0)], 1)])
# Same twins, but run one more (empty) period: the orphan promoted by the
# mid-period unsubscribe entered ``pending`` after its broker acted, so
# ``finish_period`` must not retire it — a wholesale ``pending`` clear
# strands the twin locally while the coverer's removal propagates,
# leaving no remote summary that routes events to its broker at all.
@example(script=[
    ([("sub", 0, 0), ("sub", 0, 0)], [("unsub", 0, 0)], 1), ([], [], 1),
])
# Twins at a broker whose coverer unsubscribes mid-period *before* that
# broker acts: the promoted twin must ride that broker's act — both delta
# AND full mode once lost the subscription here.
@example(script=[([("sub", 1, 0), ("sub", 1, 0)], [("unsub", 0, 0)], 1)])
# Subscribes before any broker acts, and after the first degree class
# acted: the early ones ride this period, the late ones the next.
@example(script=[([], [("sub", 0, 0), ("sub", 1, 3)], 0)])
@example(script=[([("sub", 2, 0)], [("sub", 0, 0), ("sub", 1, 3)], 1)])
def test_delta_backbone_equals_full_backbone(script):
    os.environ["REPRO_PARANOID"] = "1"
    try:
        systems = {
            mode: SummaryPubSub(
                paper_example_tree(), SCHEMA,
                propagation_mode=mode, paranoid=True,
            )
            for mode in ("delta", "full")
        }
        lives = {mode: [] for mode in systems}
        late = {}
        for before_ops, mid_ops, acted in script:
            for mode, system in systems.items():
                apply_ops(system, before_ops, lives[mode])
                late[mode] = run_period_with_midperiod_ops(
                    system, mid_ops, lives[mode], acted
                )
        assert late["delta"] == late["full"]
        if late["delta"]:
            # A subscription that arrived after its broker acted is still
            # pending and summarized nowhere yet; one quiet period ships it.
            for mode, system in systems.items():
                run_period_with_midperiod_ops(system, [], lives[mode])
        delta, full = systems["delta"], systems["full"]

        assert lives["delta"] == lives["full"]
        for broker_id in delta.brokers:
            assert (
                delta.brokers[broker_id].merged_brokers
                == full.brokers[broker_id].merged_brokers
            )
            # Kept summaries agree on live ids; delta mode never keeps
            # *more* (its removal blocks shed dead ids full mode retains).
            alive = live_ids(delta)
            assert kept_ids(delta, broker_id) <= kept_ids(full, broker_id)
            assert (
                kept_ids(delta, broker_id) & alive
                == kept_ids(full, broker_id) & alive
            )

        publishers = sorted(delta.topology.brokers)
        for index, event in enumerate(PROBES):
            publisher = publishers[index % len(publishers)]
            got = {
                mode: {
                    (d.broker, d.sid)
                    for d in system.publish(publisher, event).deliveries
                }
                for mode, system in systems.items()
            }
            truth = delta.ground_truth_matches(event)
            assert full.ground_truth_matches(event) == truth
            assert got["delta"] == truth
            assert got["full"] == truth
    finally:
        os.environ.pop("REPRO_PARANOID", None)
