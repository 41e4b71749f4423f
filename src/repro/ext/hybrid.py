"""Hybrid summarization + subsumption (paper section 6).

The conclusions mention ongoing work "combining summarization and
subsumption".  The natural combination: before a new subscription enters
the summary (and therefore the propagated id lists), check whether an
already-summarized *local* subscription covers it.  If so, the newcomer
needs no summary entry of its own — any event matching it also matches its
coverer, so the coverer's id will bring the event home, where delivery
re-checks the raw store anyway.

This prefilter proved its worth as an ``ext`` prototype and has since been
folded into :class:`~repro.broker.broker.SummaryBroker` itself (the
``suppress_covered`` flag, on by default).  The fold-in also fixed two
defects of the prototype kept here for the ablation benchmarks:

* the old ``_rebuild_frontier`` rescanned the *entire* store on every
  frontier unsubscribe — the core path re-homes only the ids the departed
  member actually covered (:meth:`SummaryBroker._frontier_remove`), and
* the old ``suppressed`` counter (``len(store) - len(_summarized_sids)``)
  drifted when :class:`~repro.siena.poset.CoveringSet` silently *evicted*
  frontier members covered by a later, more general arrival — the evicted
  sid stayed in ``_summarized_sids`` while its subscription left the
  frontier.  The core path counts covered ids directly
  (``len(_coverer_of)``) over a frontier that never evicts (a slot mask
  over the store's owner index, searched for coverers by one bitset
  query), so the counter is exact by construction (asserted against
  recomputed ground truth in ``tests/ext/test_hybrid.py``).

These classes remain as thin aliases so existing experiment/benchmark
code (``benchmarks/test_ablation_hybrid.py``) keeps working; the ablation
contrast is now expressed as ``suppress_covered=True`` (hybrid) versus
``suppress_covered=False`` (plain).
"""

from __future__ import annotations

from repro.broker.broker import SummaryBroker
from repro.broker.system import SummaryPubSub

__all__ = ["HybridBroker", "HybridPubSub"]


class HybridBroker(SummaryBroker):
    """A summary broker with covered-id suppression forced on.

    Kept for backwards compatibility: suppression now lives in
    :class:`SummaryBroker` (``suppress_covered=True`` by default); this
    subclass merely pins the flag so ablation code that instantiates
    ``HybridBroker`` directly keeps its meaning even if the default ever
    changes.
    """

    def __init__(self, *args, **kwargs):
        kwargs["suppress_covered"] = True
        super().__init__(*args, **kwargs)


class HybridPubSub(SummaryPubSub):
    """The summary system with the covering prefilter enabled."""

    def __init__(self, *args, **kwargs):
        kwargs["suppress_covered"] = True
        super().__init__(*args, **kwargs)

    def _create_broker(self, broker_id: int) -> SummaryBroker:
        return HybridBroker(
            broker_id,
            self.schema,
            self.precision,
            on_delivery=self._record_delivery,
            dedup_capacity=self.dedup_capacity,
            max_subscriptions=self.max_subscriptions,
        )
