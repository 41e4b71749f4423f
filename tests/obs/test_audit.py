"""SummaryAuditor tests: every invariant family, seeded and detected.

Each test corrupts one specific structure the way a real bug would (often
by editing private state — the auditor exists to distrust the public API)
and asserts the auditor names that violation family.  A final block checks
the clean path: a correctly driven broker/system raises nothing.
"""

from __future__ import annotations

import pytest

from repro.broker.broker import SummaryBroker
from repro.broker.system import SummaryPubSub
from repro.model import parse_subscription
from repro.model.ids import SubscriptionId
from repro.network.topology import paper_example_tree
from repro.obs.audit import (
    PARANOID_ENV,
    SAMPLE_ENV,
    AuditError,
    SummaryAuditor,
    Violation,
    audit_sample_limit,
    paranoid_enabled,
)
from repro.summary.aacs import RangeRow
from repro.summary.intervals import Interval


def _settled_broker(schema, subscriptions, **kwargs):
    """A broker whose subscriptions have completed one period."""
    broker = SummaryBroker(0, schema, **kwargs)
    sids = [broker.subscribe(s) for s in subscriptions]
    broker.begin_period()
    broker.act_period(None)
    broker.finish_period()
    return broker, sids


def _checks(violations):
    return {violation.check for violation in violations}


# -- clean paths -------------------------------------------------------------


def test_clean_broker_passes(schema, paper_subscriptions):
    broker, _sids = _settled_broker(schema, paper_subscriptions)
    auditor = SummaryAuditor(schema)
    auditor.assert_clean(broker)
    assert auditor.audits_run == 1


def test_clean_system_passes(small_workload):
    system = SummaryPubSub(paper_example_tree(), small_workload.schema)
    for index, subscription in enumerate(small_workload.subscriptions(8)):
        system.subscribe(index % 5, subscription)
    system.run_propagation_period()
    system.publish(3, small_workload.event())
    auditor = SummaryAuditor(small_workload.schema)
    auditor.assert_clean(system)
    auditor.audit_dedup(system)
    assert auditor.audits_run == len(system.brokers)


# -- seeded violations, one family per test ----------------------------------


def test_local_liveness_kept(schema, paper_subscriptions):
    broker, sids = _settled_broker(schema, paper_subscriptions)
    broker.store.unsubscribe(sids[0])  # store-only removal = the bug shape
    violations = SummaryAuditor(schema).audit_broker(broker)
    assert "local-liveness" in _checks(violations)
    assert any("kept summary" in v.detail for v in violations)


def test_local_liveness_pending(schema, paper_subscriptions):
    broker = SummaryBroker(0, schema)
    sid = broker.subscribe(paper_subscriptions[0])
    broker.store.unsubscribe(sid)  # pending batch now references a ghost
    violations = SummaryAuditor(schema).audit_broker(broker)
    assert any(
        v.check == "local-liveness" and "pending batch" in v.detail
        for v in violations
    )


def test_coverage_soundness(schema, paper_subscriptions):
    broker, sids = _settled_broker(schema, paper_subscriptions)
    # Narrow the summary behind the store's back: drop S1's id from the
    # price structure only.  Events satisfying S1's price range are no
    # longer admitted -> the summary narrows, which is never sound.
    broker.kept_summary._aacs["price"].remove(sids[0])
    violations = SummaryAuditor(schema).audit_broker(broker)
    assert "coverage-soundness" in _checks(violations)
    assert any("'price'" in v.detail for v in violations)


def test_c3_accounting(schema, paper_subscriptions):
    broker, _sids = _settled_broker(schema, paper_subscriptions)
    # A foreign id whose c3 mask claims volume only, planted in the price
    # structure: Algorithm 1's popcount(c3) termination rule is now wrong.
    bogus = SubscriptionId(
        broker=1, local_id=7, attr_mask=1 << schema.position("volume")
    )
    broker.kept_summary._aacs["price"].insert_interval(
        Interval(1.0, 2.0), [bogus]
    )
    violations = SummaryAuditor(schema).audit_broker(broker)
    assert "c3-accounting" in _checks(violations)


def test_aacs_order_and_disjoint(schema, paper_subscriptions):
    broker, sids = _settled_broker(schema, paper_subscriptions)
    aacs = broker.kept_summary._aacs["price"]
    # Appended out of order AND overlapping everything before it.
    aacs._ranges.append(RangeRow(Interval(0.0, 1e9), {sids[0]}))
    checks = _checks(SummaryAuditor(schema).audit_broker(broker))
    assert "aacs-order" in checks
    assert "aacs-disjoint" in checks


def test_aacs_empty_row(schema, paper_subscriptions):
    broker, _sids = _settled_broker(schema, paper_subscriptions)
    aacs = broker.kept_summary._aacs["price"]
    aacs._ranges[0].ids.clear()
    checks = _checks(SummaryAuditor(schema, sample_limit=0).audit_broker(broker))
    assert "aacs-empty-row" in checks


def test_aacs_eq_index_divergence(schema, paper_subscriptions):
    broker, _sids = _settled_broker(schema, paper_subscriptions)
    aacs = broker.kept_summary._aacs["price"]
    assert aacs._equalities, "fixture should give price an equality row"
    aacs._eq_keys.append(999.0)  # sorted index no longer mirrors the map
    checks = _checks(SummaryAuditor(schema).audit_broker(broker))
    assert "aacs-eq-index" in checks


def test_sacs_empty_row_and_literal_key(schema, paper_subscriptions):
    # S1 alone: with S2's 'symbol >* OT' present, COARSE merging would
    # absorb the 'OTE' literal into the general 'OT*' row.
    broker, _sids = _settled_broker(schema, [paper_subscriptions[0]])
    sacs = broker.kept_summary._sacs["symbol"]
    assert "OTE" in sacs._literals  # symbol = OTE from S1
    sacs._literals["ZZZ"] = sacs._literals.pop("OTE")  # re-keyed wrongly
    checks = _checks(SummaryAuditor(schema).audit_broker(broker))
    assert "sacs-literal-key" in checks
    sacs._literals["ZZZ"].ids.clear()
    checks = _checks(SummaryAuditor(schema, sample_limit=0).audit_broker(broker))
    assert "sacs-empty-row" in checks


def test_dedup_capacity(schema, paper_subscriptions):
    broker, _sids = _settled_broker(
        schema, paper_subscriptions, dedup_capacity=4
    )
    for publish_id in range(1, 10):  # bypass _remember's eviction
        broker._routed_publishes[publish_id] = None
    violations = SummaryAuditor(schema).audit_broker(broker)
    assert "dedup-capacity" in _checks(violations)


def test_audit_dedup_raises_on_system(small_workload):
    system = SummaryPubSub(
        paper_example_tree(), small_workload.schema, dedup_capacity=2
    )
    broker = system.brokers[0]
    for publish_id in range(1, 8):
        broker._delivered_publishes[publish_id] = None
    with pytest.raises(AuditError, match="dedup-capacity"):
        SummaryAuditor(small_workload.schema).audit_dedup(system)


def test_compiled_accounting(schema, paper_subscriptions, paper_event):
    broker, _sids = _settled_broker(schema, paper_subscriptions)
    broker.match_kept_many([paper_event])  # builds + binds the snapshot
    auditor = SummaryAuditor(schema)
    assert "compiled-accounting" not in _checks(auditor.audit_broker(broker))
    signatures = broker._compiled._signatures
    assert len(signatures) == 2  # S1 and S2 constrain different attributes
    c3, members, names = signatures[0]
    signatures[0] = (c3, members & (members - 1), names)  # lose one slot
    assert "compiled-accounting" in _checks(auditor.audit_broker(broker))
    # The lost slot filed under the other signature, whose c3 is not its own.
    other_c3, other, other_names = signatures[1]
    signatures[1] = (other_c3, other | (members & -members), other_names)
    assert "compiled-accounting" in _checks(auditor.audit_broker(broker))


def test_merged_brokers(small_workload):
    system = SummaryPubSub(paper_example_tree(), small_workload.schema)
    system.subscribe(0, small_workload.subscription())
    system.run_propagation_period()
    auditor = SummaryAuditor(small_workload.schema)
    system.brokers[2].merged_brokers.discard(2)  # lost itself
    system.brokers[3].merged_brokers.add(99)  # references a ghost broker
    violations = auditor.audit_system(system)
    assert _checks(violations) == {"merged-brokers"}
    assert {v.broker for v in violations} == {2, 3}


# -- match-parity (the paranoid compiled cross-check) -------------------------


def _desync_compiled(broker, sid, attribute):
    """Mutate the live summary without bumping its generation counter, so a
    bound compiled snapshot silently diverges from the reference walk."""
    aacs = broker.kept_summary._aacs[attribute]
    for row in aacs._ranges:
        row.ids.discard(sid)
    for ids in aacs._equalities.values():
        ids.discard(sid)


def test_paranoid_match_detects_compiled_divergence(
    schema, paper_subscriptions, paper_event
):
    broker, sids = _settled_broker(schema, paper_subscriptions)
    broker.paranoid = True
    assert sids[0] in broker.match_kept_many([paper_event])[0]  # parity holds
    _desync_compiled(broker, sids[0], "price")
    with pytest.raises(AuditError, match="match-parity"):
        broker.match_kept_many([paper_event])


def test_check_match_parity_helper(schema, paper_subscriptions, paper_event):
    broker, sids = _settled_broker(schema, paper_subscriptions)
    broker.match_kept_many([paper_event])
    assert SummaryAuditor.check_match_parity(broker, paper_event) is None
    _desync_compiled(broker, sids[0], "price")
    violation = SummaryAuditor.check_match_parity(broker, paper_event)
    assert violation is not None and violation.check == "match-parity"


def test_unparanoid_match_misses_the_divergence(
    schema, paper_subscriptions, paper_event
):
    """Without paranoid mode the same corruption sails through — the
    contrast that justifies the cross-check's existence."""
    broker, sids = _settled_broker(schema, paper_subscriptions)
    broker.match_kept_many([paper_event])
    _desync_compiled(broker, sids[0], "price")
    assert sids[0] in broker.match_kept_many([paper_event])[0]  # stale, undetected


# -- error type / env plumbing ------------------------------------------------


def test_audit_error_formatting():
    error = AuditError([
        Violation("local-liveness", 3, "ghost id"),
        Violation("merged-brokers", -1, "systemic"),
    ])
    text = str(error)
    assert "2 violation(s)" in text
    assert "[local-liveness] broker 3: ghost id" in text
    assert "[merged-brokers] system: systemic" in text


def test_paranoid_enabled_env(monkeypatch):
    monkeypatch.delenv(PARANOID_ENV, raising=False)
    assert not paranoid_enabled()
    for falsy in ("", "0", "false", "No", "OFF"):
        monkeypatch.setenv(PARANOID_ENV, falsy)
        assert not paranoid_enabled()
    for truthy in ("1", "true", "yes", "paranoid"):
        monkeypatch.setenv(PARANOID_ENV, truthy)
        assert paranoid_enabled()


def test_audit_sample_limit_env(monkeypatch):
    monkeypatch.delenv(SAMPLE_ENV, raising=False)
    assert audit_sample_limit() == 64
    monkeypatch.setenv(SAMPLE_ENV, "10")
    assert audit_sample_limit() == 10
    monkeypatch.setenv(SAMPLE_ENV, "-5")
    assert audit_sample_limit() == 0
    monkeypatch.setenv(SAMPLE_ENV, "junk")
    assert audit_sample_limit() == 64


def test_system_paranoid_mode_via_env(monkeypatch, small_workload):
    monkeypatch.setenv(PARANOID_ENV, "1")
    system = SummaryPubSub(paper_example_tree(), small_workload.schema)
    assert system.paranoid and system.auditor is not None
    subscription = small_workload.subscription()
    system.subscribe(0, subscription)
    system.run_propagation_period()
    system.publish(6, small_workload.matching_event(subscription))
    sid = next(iter(system.brokers[0].store.ids()))
    system.unsubscribe(0, sid)
    assert system.auditor.audits_run > 0  # the hooks actually fired


def test_system_paranoid_override_beats_env(monkeypatch, small_workload):
    monkeypatch.setenv(PARANOID_ENV, "1")
    system = SummaryPubSub(
        paper_example_tree(), small_workload.schema, paranoid=False
    )
    assert not system.paranoid and system.auditor is None
