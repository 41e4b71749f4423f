"""A traced end-to-end run — the observability smoke experiment.

Drives one small but complete system lifecycle with a live
:class:`~repro.obs.tracing.Tracer` attached (and the
:class:`~repro.obs.audit.SummaryAuditor` in paranoid mode, so the run
doubles as an invariant sweep): subscribe a Table-2 workload, run a
propagation period, publish a batch of events, unsubscribe a slice of the
subscriptions a period already propagated (their removals queue for the
next period) — then run a full refresh and a second publish wave.

Outputs:

* an :class:`~repro.experiments.common.ExperimentResult` with the
  per-stage timing table (what ``repro-experiments traced`` prints),
* optionally a JSONL span export plus the rendered trace report — the CI
  trace-artifact job calls :func:`main` with ``--trace-out/--report-out``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Tuple

from repro.analysis.tracereport import TraceReport, build_trace_report
from repro.broker.system import SummaryPubSub
from repro.experiments.common import ExperimentResult
from repro.network.backbone import cable_wireless_24
from repro.obs.tracing import Tracer
from repro.workload.config import WorkloadConfig
from repro.workload.generator import WorkloadGenerator

__all__ = ["run", "run_traced_system", "main"]


def run_traced_system(
    quick: bool = True, paranoid: bool = True, seed: int = 0
) -> Tuple[SummaryPubSub, Tracer]:
    """Execute the lifecycle; returns the finished system and its tracer."""
    sigma = 10 if quick else 50
    events = 20 if quick else 200
    topology = cable_wireless_24()
    config = WorkloadConfig(sigma=sigma)
    generator = WorkloadGenerator(config, seed=seed)
    tracer = Tracer()
    system = SummaryPubSub(
        topology,
        generator.schema,
        tracer=tracer,
        paranoid=paranoid,
    )

    # Phase 1: subscribe sigma per broker and propagate.
    sids = []
    subscriptions = []
    for broker_id in topology.brokers:
        for subscription in generator.subscriptions(sigma):
            sids.append((broker_id, system.subscribe(broker_id, subscription)))
            subscriptions.append(subscription)
    system.run_propagation_period()

    # Phase 2: publish a first event wave (every broker takes a turn).
    # Every other event is aimed at a stored subscription so the trace
    # exercises the notify -> re-check -> delivery tail, not just the
    # BROCLI search.
    brokers = sorted(topology.brokers)
    for index in range(events):
        if index % 2 and subscriptions:
            event = generator.matching_event(
                subscriptions[(index * 13) % len(subscriptions)]
            )
        else:
            event = generator.event()
        system.publish(brokers[index % len(brokers)], event)

    # Phase 3: churn — drop every third subscription (exercises the
    # unsubscribe auditing path), then full-refresh and publish again.
    for broker_id, sid in sids[::3]:
        system.unsubscribe(broker_id, sid)
    system.run_full_refresh()
    for index in range(events // 2):
        system.publish(brokers[(index * 7) % len(brokers)], generator.event())

    return system, tracer


def run(quick: bool = True) -> ExperimentResult:
    """The ``traced`` experiment: stage timing table of one traced run."""
    system, tracer = run_traced_system(quick=quick)
    report = build_trace_report(tracer)
    result = ExperimentResult(
        name="traced",
        description=(
            "Per-stage timings of one traced end-to-end run "
            "(publish -> hop -> match -> re-check -> delivery; "
            "propagation periods)"
        ),
        columns=["stage", "count", "total_us", "mean_us", "p95_us"],
    )
    for stats in report.stages:
        result.add_row(
            stage=stats.kind,
            count=stats.count,
            total_us=stats.total_us,
            mean_us=stats.mean_us,
            p95_us=stats.p95_us,
        )
    auditor = system.auditor
    if auditor is not None:
        result.notes.append(
            f"paranoid mode on: {auditor.audits_run} invariant audits, "
            f"zero violations"
        )
    result.notes.append(f"{len(tracer)} spans recorded")
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run a small traced end-to-end system and export the trace."
    )
    parser.add_argument("--full", action="store_true", help="larger run")
    parser.add_argument(
        "--trace-out", type=Path, default=None,
        help="write the span JSONL here (CI artifact)",
    )
    parser.add_argument(
        "--report-out", type=Path, default=None,
        help="write the rendered trace report here (CI artifact)",
    )
    args = parser.parse_args(argv)
    system, tracer = run_traced_system(quick=not args.full)
    report: TraceReport = build_trace_report(tracer)
    if args.trace_out is not None:
        tracer.export_jsonl(args.trace_out)
        print(f"trace: {args.trace_out} ({len(tracer)} spans)")
    if args.report_out is not None:
        args.report_out.write_text(report.render() + "\n", encoding="utf-8")
        print(f"report: {args.report_out}")
    print(report.render())
    auditor = system.auditor
    if auditor is not None:
        print(f"paranoid audits: {auditor.audits_run}, zero violations")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI shim
    sys.exit(main())
