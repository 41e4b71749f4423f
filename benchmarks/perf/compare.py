"""Compare two result files of the perf ledger, metric by metric.

    python benchmarks/perf/compare.py A.json B.json

A and B are files written by ``run.py --out`` (plain runs).  For every
workload x end-to-end metric one row: A, B, how much worse B is than A as
a share of A (negative: better), the bound BENCHMARK.json fixes, and a
verdict.  ``failed_share`` has no relative bound: it may not rise at all.
Exits 1 when any bound is exceeded — the repeatability check of this
benchmark (A and B the same commit) and the regression check of later
changes (A the parent, B the change).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[2]


def worse_by(metric: dict, a: float, b: float) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    change = (b - a) / a
    return change if metric["better"] == "lower" else -change


def compare(a: dict, b: dict, end_to_end: List[dict]) -> Tuple[List[str], bool]:
    rows = [f"{'workload':14s} {'metric':30s} {'A':>12s} {'B':>12s} "
            f"{'worse by':>9s} {'bound':>6s}  verdict"]
    exceeded = False
    for name in a["workloads"]:
        if name not in b["workloads"]:
            rows.append(f"{name:14s} missing from B")
            exceeded = True
            continue
        run_a, run_b = a["workloads"][name], b["workloads"][name]
        for metric in end_to_end:
            value_a = run_a["metrics"][metric["name"]]
            value_b = run_b["metrics"][metric["name"]]
            worse = worse_by(metric, value_a, value_b)
            over = worse > metric["bound"]
            exceeded |= over
            rows.append(
                f"{name:14s} {metric['name']:30s} {value_a:12.3f} {value_b:12.3f} "
                f"{worse:+9.3f} {metric['bound']:6.2f}  {'EXCEEDED' if over else 'ok'}"
            )
        over = run_b["failed_share"] > run_a["failed_share"]
        exceeded |= over
        rows.append(
            f"{name:14s} {'failed_share':30s} {run_a['failed_share']:12.6f} "
            f"{run_b['failed_share']:12.6f} {'':9s} {'rise':>6s}  "
            f"{'EXCEEDED' if over else 'ok'}"
        )
    return rows, exceeded


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    spec: Dict = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows, exceeded = compare(a, b, spec["end_to_end"])
    print("\n".join(rows))
    return 1 if exceeded else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
