"""Regression: an unsubscribe landing *mid-period* must not resurrect the id.

The bug: a broker's act (``act_period``) folds the pending batch into the
period's adds.  An unsubscribe arriving between the act and
``finish_period`` used to clean the store, the pending batch and the kept
summary — but not the in-flight adds, so ``finish_period`` merged the dead
id straight back into ``kept_summary``.  Locally the broker then kept
matching (and "delivering" from an empty store entry — the re-check saved
correctness, but the summary lied until the next full refresh).

These tests drive the broker-level period protocol directly (the system
API runs periods synchronously, so the mid-period window is only reachable
here), and verify that :class:`~repro.obs.audit.SummaryAuditor` catches the
pre-fix behaviour as a ``local-liveness`` violation.
"""

from __future__ import annotations

import pytest

from repro.broker.broker import SummaryBroker
from repro.obs.audit import SummaryAuditor


@pytest.fixture
def broker(schema):
    return SummaryBroker(0, schema)


def _legacy_unsubscribe(broker: SummaryBroker, sid) -> bool:
    """The pre-fix unsubscribe body: everything except the delta removal."""
    if broker.store.unsubscribe(sid) is None:
        return False
    broker.pending = [(p, s) for p, s in broker.pending if p != sid]
    broker.kept_summary.remove(sid)
    return True


def test_unsubscribe_mid_period_does_not_resurrect(
    broker, paper_subscriptions, paper_event
):
    """subscribe -> act -> unsubscribe -> finish_period: gone."""
    s1, _s2 = paper_subscriptions
    assert s1.matches(paper_event)  # figure 2's event matches S1
    sid = broker.subscribe(s1)

    broker.begin_period()
    broker.act_period(None)  # the period's adds now hold sid
    assert broker.unsubscribe(sid)
    broker.finish_period()  # pre-fix: merged the stale adds back

    assert sid not in broker.kept_summary.all_ids()
    assert sid not in broker.match_kept_many([paper_event])[0]
    SummaryAuditor(broker.schema).assert_clean(broker)


def test_unsubscribe_mid_period_spares_other_pending(
    broker, paper_subscriptions, paper_event
):
    """Only the unsubscribed id leaves the adds; siblings still land."""
    s1, s2 = paper_subscriptions
    sid1 = broker.subscribe(s1)
    sid2 = broker.subscribe(s2)
    broker.begin_period()
    broker.act_period(None)
    assert broker.unsubscribe(sid1)
    broker.finish_period()
    assert broker.kept_summary.all_ids() == {sid2}
    assert broker.match_kept_many([paper_event])[0] == set()  # S2 doesn't match fig. 2


def test_unsubscribe_outside_period_still_clean(
    broker, paper_subscriptions, paper_event
):
    s1, _s2 = paper_subscriptions
    sid = broker.subscribe(s1)
    broker.begin_period()
    broker.act_period(None)
    broker.finish_period()
    assert sid in broker.match_kept_many([paper_event])[0]
    assert broker.unsubscribe(sid)
    assert sid not in broker.kept_summary.all_ids()
    assert broker.pending == []
    SummaryAuditor(broker.schema).assert_clean(broker)


def test_unsubscribe_unknown_sid_returns_false(broker, paper_subscriptions):
    s1, _s2 = paper_subscriptions
    sid = broker.subscribe(s1)
    assert broker.unsubscribe(sid)
    assert not broker.unsubscribe(sid)  # second time: already gone


def test_auditor_catches_the_legacy_behaviour(broker, paper_subscriptions):
    """With the fix reverted, the auditor reports local-liveness — both
    mid-period (stale adds) and after the period (resurrected kept id)."""
    s1, _s2 = paper_subscriptions
    sid = broker.subscribe(s1)
    broker.begin_period()
    broker.act_period(None)  # the window: the adds hold sid
    assert _legacy_unsubscribe(broker, sid)

    auditor = SummaryAuditor(broker.schema)
    mid = auditor.audit_broker(broker)
    assert any(
        v.check == "local-liveness" and "adds" in v.detail for v in mid
    ), mid

    broker.finish_period()
    assert sid in broker.kept_summary.all_ids()  # the resurrection itself
    after = auditor.audit_broker(broker)
    assert any(
        v.check == "local-liveness" and "kept summary" in v.detail
        for v in after
    ), after
    assert auditor.audits_run == 2


def test_fixed_unsubscribe_keeps_auditor_silent_through_churn(small_workload):
    """Randomized churn across period boundaries stays violation-free."""
    broker = SummaryBroker(0, small_workload.schema)
    auditor = SummaryAuditor(broker.schema)
    sids = [broker.subscribe(s) for s in small_workload.subscriptions(12)]
    broker.begin_period()
    broker.act_period(None)
    for sid in sids[::2]:
        assert broker.unsubscribe(sid)
    auditor.assert_clean(broker)  # mid-period already clean
    broker.finish_period()
    auditor.assert_clean(broker)
    assert set(broker.kept_summary.all_ids()) == set(sids[1::2])
