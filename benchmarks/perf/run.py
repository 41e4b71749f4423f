"""The perf ledger: multi-process publish -> notify benchmark.

Driver contract (one workload, last stdout line is the result object)::

    python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1

Whole suite into one file (what ``results/`` holds, input of compare.py)::

    PYTHONPATH=src python -m benchmarks.perf.run --seed N --repeat R --out FILE

``--trace 0`` measures with plain ``repro-broker`` processes and reports
the end-to-end metrics.  ``--trace 1`` runs the same inputs against
``traced_broker.py`` and reports the per-layer metrics; to state what
tracing costs it first runs the same phases against plain brokers in the
same invocation.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import gc
import json
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]
for _path in (ROOT / "src", ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from benchmarks.perf.cluster import BrokerDied, Cluster, host_cpu_ticks  # noqa: E402
from benchmarks.perf.ledger import layer_metrics, load_traces  # noqa: E402
from benchmarks.perf.loadgen import LoadGenerator  # noqa: E402
from benchmarks.perf.oracle import Ledger  # noqa: E402
from benchmarks.perf.workloads import BROKERS, WORKLOADS, Inputs, Workload  # noqa: E402

#: Set-ups per plain run; the median is ``setup_s``.  A traced run does
#: two: the plain reference and the traced one.
SETUPS = 3
#: A workload that has not finished by then is failed, not waited for.
DEADLINE_S = 170.0
MARK_SETTLE_S = 0.05


async def _mark(cluster: Cluster) -> None:
    """Ask every traced broker for a snapshot of its aggregates."""
    if cluster.traced:
        cluster.signal_all(signal.SIGUSR1)
        await asyncio.sleep(MARK_SETTLE_S)


async def _measure(workload: Workload, generator: LoadGenerator, cluster: Cluster,
                   seconds: float) -> Dict[str, float]:
    await generator.idle_probes()
    await generator.warm_up()
    await _mark(cluster)
    stop_churn = asyncio.Event()
    churn = (
        asyncio.create_task(generator.churn(workload.churn_ops_per_s, stop_churn))
        if workload.churn_ops_per_s else None
    )
    host_before = host_cpu_ticks()
    try:
        # Paced first: it routes a fixed number of events, so both phases
        # start from the same broker state on every run.
        measured = await generator.paced_phase(seconds / 2, workload.rate_evps)
        await _mark(cluster)
        measured.update(await generator.capacity_phase(seconds / 2))
        await _mark(cluster)
    finally:
        stop_churn.set()
        if churn is not None:
            await churn
        gc.enable()
    host_after = host_cpu_ticks()
    measured["host.steal_share"] = (
        (host_after["steal"] - host_before["steal"])
        / (host_after["total"] - host_before["total"])
    )
    rss = cluster.peak_rss_mb()
    measured["broker_rss_mb"] = sum(rss.values())
    measured["broker_rss_mb_by_broker"] = rss
    return measured


async def run_workload(workload: Workload, seed: int, seconds: float,
                       traced: bool, out_dir: Path) -> dict:
    """Set up (several times), measure, verify; returns the full record."""
    shutil.rmtree(out_dir, ignore_errors=True)  # stale stderr would invalidate us
    inputs = Inputs(workload, seed)
    ledger = Ledger()
    plan = [False, True] if traced else [False] * SETUPS
    setup_seconds: List[float] = []
    reference: Optional[Dict[str, float]] = None
    measured: Dict[str, float] = {}
    for traced_brokers in plan:
        final = len(setup_seconds) == len(plan) - 1
        cluster = Cluster(out_dir, traced_brokers)
        generator = LoadGenerator(inputs, cluster, ledger)
        try:
            started = time.perf_counter()
            cluster.start()
            await generator.set_up()
            setup_seconds.append(time.perf_counter() - started)
            if final:
                measured = await _measure(workload, generator, cluster, seconds)
            elif traced:
                # Same phases, same history, plain brokers: what the traced
                # run's CPU is compared against.
                reference = await _measure(workload, generator, cluster, seconds)
        finally:
            await generator.close()
            cluster.stop()
    measured.update(generator.verify())
    warnings = cluster.stderr_warnings()
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "op_stream_hash": inputs.op_stream_hash(),
        "sigma": workload.sigma,
        "rate_evps": workload.rate_evps,
        "setup_s_each": setup_seconds,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failed_share": ledger.failed_share,
        "false_deliveries": ledger.false_deliveries,
        "ledger": dataclasses.asdict(ledger),
        "broker_warnings": warnings,
    }
    measured["setup_s"] = statistics.median(setup_seconds)
    if traced:
        layers, by_role = layer_metrics(
            load_traces({b: cluster.trace_path(b) for b in BROKERS}),
            measured["events"],
        )
        layers["trace.overhead_share"] = (
            measured["cpu_us_per_event"] / reference["cpu_us_per_event"] - 1.0
        )
        record["plain_reference"] = reference
        record["by_role"] = by_role
        measured.update(layers)
    dropped = measured.get("runtime.server.frames_dropped", 0) > 0
    record["metrics"] = measured
    # Plain brokers have no exit hook; a dropped frame or a dropped
    # connection is logged at WARNING, and nothing else is, so any stderr
    # output invalidates the run.
    record["valid"] = bool(
        measured["late_ok"] and measured["paced_quiet"] and measured["capacity_quiet"]
        and not warnings and not dropped
        and measured["latency_samples"] >= 2000 * min(1.0, seconds / 16)
    )
    record["correct"] = bool(
        ledger.false_deliveries == 0 and ledger.failed == 0
        and not warnings and not dropped
    )
    return record


def report(record: dict, declared: Dict[str, dict]) -> dict:
    """Print every declared metric by name and unit; returns the contract
    object (the caller prints it as the last line)."""
    metrics = {}
    print(f"== {record['workload']} seed={record['seed']} "
          f"({'per-layer, traced' if record['traced'] else 'end-to-end, plain'}) ==")
    for name, spec in declared.items():
        value = record["metrics"][name]
        metrics[name] = {"value": value, "unit": spec["unit"]}
        print(f"{name:48s} {value:14.4f} {spec['unit']}")
    print(f"{'failed_share':48s} {record['failed_share']:14.6f} share "
          f"({record['failed']} of {record['attempted']})")
    measured = record["metrics"]
    print(f"valid={record['valid']} correct={record['correct']} "
          f"latency_samples={measured['latency_samples']} events={measured['events']} "
          f"quiet windows: paced {measured['paced_windows_kept']}/"
          f"{measured['paced_windows']} capacity {measured['capacity_windows_kept']}/"
          f"{measured['capacity_windows']} late_p99={measured['loadgen.late_p99_ms']:.1f}ms "
          f"steal={measured['host.steal_share']:.3f}")
    for line in record["ledger"]["examples"] + record["broker_warnings"][:10]:
        print(f"  ! {line}")
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def summarise(runs: List[dict]) -> dict:
    """One workload's entry in an ``--out`` file: every run, and per metric
    the median over the runs (what compare.py reads)."""
    names = [
        name for name, value in runs[0]["metrics"].items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    ]
    return {
        "metrics": {
            name: statistics.median(run["metrics"][name] for run in runs)
            for name in names
        },
        "failed_share": max(run["failed_share"] for run in runs),
        "valid": all(run["valid"] for run in runs),
        "correct": all(run["correct"] for run in runs),
        "runs": runs,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload, half per phase "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, on seeds SEED, SEED+1, ...; "
                             "the --out file holds their medians")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the full records (all metrics, per-role "
                             "breakdown, ledger) as JSON")
    args = parser.parse_args(argv)
    # A terminated harness must still reap its brokers: turn SIGTERM into
    # an exit that unwinds through run_workload's finally blocks.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    # Names, units and bounds live in BENCHMARK.json and nowhere else.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    declared = {
        metric["name"]: metric
        for metric in spec["per_layer" if args.trace else "end_to_end"]
    }
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    suite, status = {}, 0
    for name in names:
        runs = []
        for seed in range(args.seed, args.seed + args.repeat):
            out_dir = ROOT / ".bench_out" / f"{name}-seed{seed}-trace{args.trace}"
            try:
                record = asyncio.run(asyncio.wait_for(
                    run_workload(WORKLOADS[name], seed, seconds, bool(args.trace),
                                 out_dir),
                    DEADLINE_S,
                ))
            except (asyncio.TimeoutError, BrokerDied, TimeoutError) as exc:
                print(f"{name}: FAILED: {exc!r} (broker stderr in {out_dir})",
                      file=sys.stderr)
                return 1
            runs.append(record)
            result = report(record, declared)
            if record["false_deliveries"]:
                status = 1  # and no result object: the run proves nothing
            else:
                print(json.dumps(result))
        suite[name] = summarise(runs)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(
            {"seed": args.seed, "repeat": args.repeat, "seconds": seconds,
             "traced": bool(args.trace), "workloads": suite}, indent=1))
    return status


if __name__ == "__main__":
    sys.exit(main())
