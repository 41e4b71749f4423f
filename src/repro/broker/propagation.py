"""Algorithm 2 — subscription summary propagation (paper section 4.2).

The process runs in ``MAX_DEGREE`` iterations.  At iteration ``i`` every
broker whose overlay degree equals ``i``:

1. merges its own (delta) summary with all summaries received in previous
   iterations, updating its ``Merged_Brokers`` set, and
2. sends the merged summary plus ``Merged_Brokers`` to ONE neighbor of
   equal or higher degree (see the target-selection policy below; ties
   broken by smallest broker id, making runs deterministic).

The paper also rules out neighbors the broker "has communicated with in a
previous iteration".  Degree order makes that rule implicit: before a
broker acts, only lower-degree neighbors (earlier iterations) can have
sent to it, and those are never candidates.  A broker with no
equal-or-higher-degree neighbor (the maximum-degree broker, or hub
patterns in non-tree overlays) simply does not send; the knowledge
fragmentation this leaves is intentional and is what the BROCLI list in
Algorithm 3 compensates for during event routing.

Each broker therefore transmits at most once per period, which is why the
paper observes that full propagation "always requires a number of hops that
is smaller than the number of brokers in the system".

The period itself is a :class:`~repro.broker.broker.Period` on each
broker.  A broker's act (target, frame, trace record, send) is
:meth:`~repro.broker.core.BrokerCore.act`, and its receive side (absorb a
SUMMARY or SUMMARY_DELTA, answer a SUMMARY_REQUEST) is
:meth:`~repro.broker.core.BrokerCore.receive`; the live runtime calls the
same two.  This engine only orders the acts and moves the frames.

**Target-selection policy.**  When several eligible neighbors exist the
paper's text prefers "the one with the smallest degree" — a load-balancing
hint.  On mesh overlays (unlike the paper's figure-7 tree) that preference
routes summaries *away* from hubs and strands knowledge in many small
clusters, which lengthens the figure-10 BROCLI chains beyond anything
consistent with the paper's own reported results.  Each broker core
therefore takes either policy (:class:`TargetPolicy`); ``HIGHEST_DEGREE`` is the
default used by the experiments, ``SMALLEST_DEGREE`` is the literal paper
text, and ``benchmarks/test_ablation_policy.py`` quantifies the gap.  See
DESIGN.md section 5.3.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Dict, Optional

from repro.broker.broker import SummaryBroker
from repro.network.simulator import Network
from repro.obs.tracing import NULL_TRACER

if TYPE_CHECKING:
    from repro.broker.core import BrokerCore

__all__ = [
    "PROPAGATION_MODES",
    "PropagationEngine",
    "TargetPolicy",
    "select_period_target",
]

#: ``"delta"`` ships :class:`SummaryDeltaMessage` frames (compressed id
#: sets, removal blocks, per-link generation chaining with full-summary
#: fallback) and is what the figure runs use; ``"full"`` is the original
#: per-period :class:`SummaryMessage` path, kept as the baseline of the
#: churn and propagation-bytes experiments.
PROPAGATION_MODES = ("delta", "full")


class TargetPolicy(enum.Enum):
    """Which eligible neighbor receives the merged summary."""

    HIGHEST_DEGREE = "highest"  # funnel towards hubs (experiment default)
    SMALLEST_DEGREE = "smallest"  # the paper's literal load-balancing hint


def select_period_target(
    topology, broker: SummaryBroker, policy: TargetPolicy = TargetPolicy.HIGHEST_DEGREE
) -> Optional[int]:
    """Algorithm 2 step 2's target: the neighbor of equal-or-higher degree
    preferred by ``policy`` (smallest id on ties), or None when there is
    none.

    :meth:`~repro.broker.core.BrokerCore.act` is its one caller, so the
    simulator and the live runtime make identical propagation-routing
    decisions.
    """
    own_degree = topology.degree(broker.broker_id)
    candidates = [
        neighbor
        for neighbor in topology.neighbors(broker.broker_id)
        if topology.degree(neighbor) >= own_degree
    ]
    if not candidates:
        return None
    if policy is TargetPolicy.SMALLEST_DEGREE:
        return min(candidates, key=lambda nb: (topology.degree(nb), nb))
    return min(candidates, key=lambda nb: (-topology.degree(nb), nb))


class PropagationEngine:
    """Drives Algorithm 2 over a simulated network of summary brokers."""

    #: Observability hook — assigned by the system facade; the null
    #: default costs one attribute check per period.
    tracer = NULL_TRACER

    def __init__(
        self,
        network: Network,
        cores: Dict[int, "BrokerCore"],
        mode: str = "delta",
    ):
        if set(cores) != set(network.topology.brokers):
            raise ValueError("need exactly one broker core per topology node")
        if mode not in PROPAGATION_MODES:
            raise ValueError(
                f"unknown propagation mode {mode!r}; expected one of "
                f"{PROPAGATION_MODES}"
            )
        self.network = network
        self.cores = cores
        self.mode = mode
        self.periods_run = 0

    # -- the period ------------------------------------------------------------

    def run_period(self, full: bool = False) -> None:
        """One propagation period over the pending subscription batches;
        with ``full`` (or in ``"full"`` mode) every frame is a complete
        :class:`SummaryMessage`."""
        pending = sum(len(core.broker.pending) for core in self.cores.values())
        with self.tracer.span(
            "propagation_period", trace_id=self.periods_run + 1,
            pending_subscriptions=pending,
        ):
            self._run_period_body(full or self.mode == "full")

    def _run_period_body(self, full: bool) -> None:
        topology = self.network.topology
        for core in self.cores.values():
            core.broker.begin_period()
        # Every broker acts, which is what folds its pending batch.  Only a
        # one-broker overlay has degree 0: it acts with no one to send to.
        for iteration in range(topology.max_degree + 1):
            for broker_id in topology.brokers_by_degree(iteration):
                self.cores[broker_id].act(full=full)
            # Deliver this iteration's messages before the next degree class
            # acts — receivers merge them into their open periods.
            if iteration:
                self.network.flush_iteration()
        # Delta-mode fallback exchanges (reject -> request -> full summary)
        # straddle iteration boundaries; drain them before the period
        # closes so the replies still land inside it.  Each chain is at
        # most two hops, so the bound is generous and never loops.
        for _ in range(2 * len(self.cores) + 2):
            if not self.network.has_pending:
                break
            self.network.flush_iteration()
        for core in self.cores.values():
            core.finish_period()
        self.periods_run += 1

    # -- full refresh ---------------------------------------------------------------

    def run_full_refresh(self) -> None:
        """Re-propagate *complete* summaries from scratch.

        Used after unsubscription churn: remote kept summaries cannot shed
        removed ids incrementally (COARSE rows forget boundaries), so a
        refresh period rebuilds every broker's summary from its raw store
        and replaces all remote knowledge.
        """
        with self.tracer.span("full_refresh", trace_id=self.periods_run + 1):
            for core in self.cores.values():
                # The refresh batch (full store contents — or the covering
                # frontier under suppression) becomes this period's pending
                # batch; the kept summary already holds it.
                core.broker.reset_for_refresh()
            # Refresh periods re-establish ground truth, so they send full
            # summaries (chaining deltas onto them is pointless).
            self.run_period(full=True)
