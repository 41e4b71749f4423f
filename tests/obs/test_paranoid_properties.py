"""Property test: randomized lifecycles under paranoid mode stay clean.

Hypothesis drives random interleavings of subscribe / unsubscribe /
propagate / publish / full-refresh against a :class:`SummaryPubSub` built
with ``paranoid=True`` — so every unsubscribe, period, refresh and publish
runs the :class:`~repro.obs.audit.SummaryAuditor` hooks, and ANY invariant
violation aborts the example as an :class:`AuditError`.

On top of the implicit auditing, every publish is checked against a
brute-force oracle (the shadow model's raw subscriptions): deliveries must
include everything propagated-and-matching and nothing unsubscribed.  This
is the machine that would have found the unsubscribe-mid-period
resurrection bug class had it existed earlier; it now guards against its
reintroduction.
"""

from __future__ import annotations

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.broker.system import SummaryPubSub
from repro.network.topology import paper_example_tree
from repro.obs.tracing import Tracer
from repro.workload import WorkloadConfig, WorkloadGenerator


class ParanoidSystemMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.generator = WorkloadGenerator(
            WorkloadConfig(subsumption=0.5), seed=2025
        )
        self.tracer = Tracer()
        self.system = SummaryPubSub(
            paper_example_tree(),
            self.generator.schema,
            tracer=self.tracer,
            paranoid=True,
        )
        assert self.system.auditor is not None
        # Shadow model: sid -> (broker, subscription, propagated?)
        self.shadow = {}

    # -- operations ----------------------------------------------------------

    @rule(broker=st.integers(0, 12))
    def subscribe(self, broker):
        subscription = self.generator.subscription()
        sid = self.system.subscribe(broker, subscription)
        self.shadow[sid] = (broker, subscription, False)

    @precondition(lambda self: self.shadow)
    @rule(data=st.data())
    def unsubscribe(self, data):
        sid = data.draw(st.sampled_from(sorted(self.shadow)))
        broker, _subscription, _propagated = self.shadow.pop(sid)
        assert self.system.unsubscribe(broker, sid)  # audits that broker

    @rule()
    def propagate(self):
        self.system.run_propagation_period()  # audits the whole system
        self.shadow = {
            sid: (broker, subscription, True)
            for sid, (broker, subscription, _p) in self.shadow.items()
        }

    @rule()
    def full_refresh(self):
        self.system.run_full_refresh()  # audits the whole system
        self.shadow = {
            sid: (broker, subscription, True)
            for sid, (broker, subscription, _p) in self.shadow.items()
        }

    @rule(publisher=st.integers(0, 12), targeted=st.booleans(), data=st.data())
    def publish(self, publisher, targeted, data):
        if targeted and self.shadow:
            sid = data.draw(st.sampled_from(sorted(self.shadow)))
            event = self.generator.matching_event(self.shadow[sid][1])
        else:
            event = self.generator.event()
        outcome = self.system.publish(publisher, event)  # audits dedup
        got = {(d.broker, d.sid) for d in outcome.deliveries}

        must_deliver = {
            (broker, sid)
            for sid, (broker, subscription, propagated) in self.shadow.items()
            if propagated and subscription.matches(event)
        }
        may_deliver = must_deliver | {
            (broker, sid)
            for sid, (broker, subscription, _p) in self.shadow.items()
            if subscription.matches(event)  # pending subs may match locally
        }
        assert got >= must_deliver, f"missed deliveries: {must_deliver - got}"
        assert got <= may_deliver, f"phantom deliveries: {got - may_deliver}"

    # -- invariants ------------------------------------------------------------

    @invariant()
    def auditor_stays_clean_even_between_hooks(self):
        # The hooks audit at mutation points; the invariant re-audits after
        # *every* step so a violation is pinned to the op that caused it.
        self.system.auditor.assert_clean(self.system)

    @invariant()
    def own_summary_entries_are_live(self):
        for broker in self.system.brokers.values():
            own = {
                sid
                for sid in broker.kept_summary.all_ids()
                if sid.broker == broker.broker_id
            }
            assert own <= broker.store.ids()

    def teardown(self):
        # The traced machine must have produced a consistent span stream.
        for span in self.tracer.spans:
            assert "error" not in span.fields, span


ParanoidSystemMachine.TestCase.settings = settings(
    max_examples=10, stateful_step_count=25, deadline=None
)

TestParanoidSystemStateful = ParanoidSystemMachine.TestCase
