"""Run-to-run spread of every end-to-end metric in one result file.

    python benchmarks/perf/spread.py FILE.json

FILE is written by ``run.py --repeat R --out FILE`` (R >= 4 runs, each on
another seed).  Per workload x end-to-end metric: the median over the
runs and the distance between the first and third quartile as a share of
the median, beside the bound BENCHMARK.json fixes.  A spread above the
bound means the metric cannot resolve a regression of that size; exits 1
when any metric other than ``setup_s`` is in that state.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parents[2]


def spread(values: List[float]) -> float:
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def main(argv: List[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    result = json.loads(Path(argv[0]).read_text())
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    print(f"{'workload':14s} {'metric':30s} {'median':>12s} {'spread':>7s} "
          f"{'bound':>6s}  verdict")
    unresolved = False
    for name, entry in result["workloads"].items():
        for metric in end_to_end:
            values = [run["metrics"][metric["name"]] for run in entry["runs"]]
            share = spread(values)
            verdict = (
                "steady" if share <= metric["bound"] / 3
                else "ok" if share <= metric["bound"] else "UNRESOLVED"
            )
            unresolved |= verdict == "UNRESOLVED" and metric["name"] != "setup_s"
            print(f"{name:14s} {metric['name']:30s} {statistics.median(values):12.3f} "
                  f"{share:7.3f} {metric['bound']:6.2f}  {verdict}")
    return 1 if unresolved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
