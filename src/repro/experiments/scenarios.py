"""Scenario sweep: every named scenario, gated on the delivery oracle.

Runs each scenario from :data:`repro.workload.scenarios.SCENARIOS` and
reports one row per (scenario, substrate): publish/churn volumes, oracle
size, delivery ratio, duplicates, and the chaos-recovery counters.  Quick
mode (the default, used by tests and CI) drives the simulator only —
exact-oracle gates, sub-second per scenario; ``quick=False`` additionally
runs every scenario against the live :class:`LocalCluster`, including the
``failover`` kill/restart drill gated at ratio ≥ 0.99.

The module doubles as the CI smoke entry point::

    python -m repro.experiments.scenarios --scenario churn_storm \
        --substrate sim --report-out churn.json
    python -m repro.experiments.scenarios --scenario failover \
        --substrate live --report-out failover.json

which exits non-zero when a gate fails and writes a small JSON report for
artifact upload.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.experiments.common import ExperimentResult
from repro.workload.scenarios import (
    SCENARIOS,
    ScenarioOutcome,
    run_scenario_sim,
    scenario_config,
)

__all__ = ["run", "run_one", "main", "SIM_GATE", "LIVE_GATE"]

#: The simulator is deterministic and fault-free: the oracle is exact.
SIM_GATE = 1.0
#: The live gate tolerates frames that die with an abruptly killed broker.
LIVE_GATE = 0.99


def run_one(name: str, substrate: str, **overrides) -> ScenarioOutcome:
    """Run one named scenario on one substrate and return its outcome."""
    config = scenario_config(name, **overrides)
    if substrate == "sim":
        return run_scenario_sim(config)
    if substrate == "live":
        from repro.runtime.chaos import run_scenario_live

        return run_scenario_live(config)
    raise ValueError(f"unknown substrate {substrate!r} (sim | live)")


def check_gate(outcome: ScenarioOutcome) -> List[str]:
    """Return the list of gate violations (empty when the outcome passes)."""
    gate = SIM_GATE if outcome.substrate == "sim" else LIVE_GATE
    problems = []
    if outcome.delivery_ratio < gate:
        problems.append(
            f"delivery ratio {outcome.delivery_ratio:.4f} < {gate} "
            f"(missing {len(outcome.missing)} of {len(outcome.expected)})"
        )
    if outcome.duplicates:
        problems.append(f"{outcome.duplicates} duplicate consumer deliveries")
    if outcome.extras:
        problems.append(f"{len(outcome.extras)} deliveries the oracle never asked for")
    if outcome.frames_balance is not None:
        enqueued, processed = outcome.frames_balance
        if enqueued != processed:
            problems.append(
                f"frame arithmetic off: {enqueued} enqueued-net vs {processed} processed"
            )
    return problems


def _add_row(result: ExperimentResult, outcome: ScenarioOutcome) -> None:
    result.add_row(
        scenario=outcome.scenario,
        substrate=outcome.substrate,
        publishes=outcome.publishes,
        churn_ops=outcome.churn_ops,
        expected=len(outcome.expected),
        ratio=outcome.delivery_ratio,
        duplicates=outcome.duplicates,
        fallbacks=outcome.metrics.get("fallback_requests", 0),
    )


def run(quick: bool = True) -> ExperimentResult:
    """Sweep every named scenario; ``quick`` keeps it simulator-only."""
    result = ExperimentResult(
        name="scenarios",
        description=(
            "Named workload scenarios vs the brute-force delivery oracle "
            "(sim exact at 1.0; live chaos gated at ≥ 0.99, zero duplicates)"
        ),
        columns=[
            "scenario", "substrate", "publishes", "churn_ops",
            "expected", "ratio", "duplicates", "fallbacks",
        ],
    )
    failures: List[str] = []
    for name in sorted(SCENARIOS):
        outcome = run_one(name, "sim")
        _add_row(result, outcome)
        failures += [f"{name}/sim: {p}" for p in check_gate(outcome)]
        if not quick:
            outcome = run_one(name, "live")
            _add_row(result, outcome)
            failures += [f"{name}/live: {p}" for p in check_gate(outcome)]
    if failures:
        result.notes.extend(failures)
        raise AssertionError("scenario gates failed: " + "; ".join(failures))
    result.notes.append(
        "sim rows are exact against the no-fault oracle; live rows (full "
        "mode) include the failover kill/restart drill"
    )
    return result


def outcome_report(outcome: ScenarioOutcome) -> dict:
    """JSON-serialisable summary for CI artifacts."""
    return {
        "scenario": outcome.scenario,
        "substrate": outcome.substrate,
        "publishes": outcome.publishes,
        "churn_ops": outcome.churn_ops,
        "skipped_ops": outcome.skipped_ops,
        "expected": len(outcome.expected),
        "delivered": outcome.delivered,
        "delivery_ratio": outcome.delivery_ratio,
        "duplicates": outcome.duplicates,
        "extras": len(outcome.extras),
        "missing": len(outcome.missing),
        "frames_balance": list(outcome.frames_balance)
        if outcome.frames_balance is not None
        else None,
        "metrics": dict(outcome.metrics),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run workload scenarios against the delivery oracle."
    )
    parser.add_argument(
        "--scenario",
        action="append",
        choices=sorted(SCENARIOS),
        help="scenario name (repeatable; default: all)",
    )
    parser.add_argument(
        "--substrate",
        choices=("sim", "live"),
        default="sim",
        help="simulator (exact oracle) or live cluster (chaos gate)",
    )
    parser.add_argument(
        "--report-out",
        metavar="PATH",
        help="write per-scenario JSON outcomes to this file",
    )
    args = parser.parse_args(argv)
    names = args.scenario or sorted(SCENARIOS)

    reports, failures = [], []
    for name in names:
        outcome = run_one(name, args.substrate)
        problems = check_gate(outcome)
        reports.append(outcome_report(outcome) | {"gate_failures": problems})
        failures += [f"{name}/{args.substrate}: {p}" for p in problems]
        status = "ok" if not problems else "FAIL"
        print(
            f"{name:>12s} [{args.substrate}] ratio={outcome.delivery_ratio:.4f} "
            f"expected={len(outcome.expected)} dup={outcome.duplicates} {status}"
        )
    if args.report_out:
        with open(args.report_out, "w", encoding="ascii") as fh:
            json.dump(reports, fh, indent=2, sort_keys=True)
    if failures:
        print("gate failures:", "; ".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
