"""Self-tests of the perf-ledger harness (not tier-1; they start brokers).

    PYTHONPATH=src python -m pytest benchmarks/perf
"""

import asyncio
import json
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for _path in (ROOT / "src", ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from benchmarks.perf import cluster, compare, run  # noqa: E402
from benchmarks.perf.loadgen import LoadGenerator  # noqa: E402
from benchmarks.perf.oracle import Ledger, check_deliveries, sample_stride  # noqa: E402
from benchmarks.perf.stats import completed_by, percentile  # noqa: E402
from benchmarks.perf.windows import Window, median_over, quiet_windows  # noqa: E402
from benchmarks.perf.workloads import CHUNK, HOME, WORKLOADS, Inputs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- inputs ------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_op_stream(name):
    workload = WORKLOADS[name]
    assert Inputs(workload, 7).op_stream_hash() == Inputs(workload, 7).op_stream_hash()
    assert Inputs(workload, 7).op_stream_hash() != Inputs(workload, 8).op_stream_hash()


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in SPEC["end_to_end"]} >= {"setup_s", "latency_p50_ms"}


def test_keyed_residents_are_never_covered_by_each_other():
    """match_bound's property: every resident is summarized (none is
    suppressed as covered), so the hub really matches 3 x sigma ids."""
    from repro.siena.covering import subscription_covers

    residents = Inputs(WORKLOADS["match_bound"], 3).residents[HOME][:200]
    assert not any(
        subscription_covers(a, b) for a in residents for b in residents if a is not b
    )


# -- statistics and /proc readers ---------------------------------------------------


def test_percentile_interpolates():
    assert percentile([1.0], 0.99) == 1.0
    assert percentile([0.0, 10.0], 0.5) == 5.0
    assert percentile(list(range(101)), 0.99) == 99.0
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_completed_by_splits_a_batch_across_a_window_edge():
    arrivals = [0.5, 1.5, 2.5]
    assert [completed_by(arrivals, 64, 0.0, at) for at in (0.0, 1.0, 2.0, 3.0)] == [
        0.0, 96.0, 160.0, 192.0]
    assert completed_by([], 64, 0.0, 1.0) == 0.0


def _window(start, steal):
    return Window(start, start + 1.0, steal, {0: 0.1})


def test_quiet_windows_drop_what_the_host_disturbed():
    windows = [_window(0, 0.0), _window(1, 0.30), _window(2, 0.04), _window(3, 0.20)]
    kept, quiet = quiet_windows(windows, 2)
    assert quiet and [w.start for w in kept] == [0, 2]
    # Too few quiet ones: the calmest stand in, and the run is flagged.
    stormy = [_window(i, 0.2 + i / 100) for i in range(7)] + [_window(7, 0.0)]
    kept, quiet = quiet_windows(stormy, 3)
    assert not quiet and [w.start for w in kept] == [0, 1, 7]


def test_median_over_windows_ignores_one_bad_window():
    windows = [_window(0, 0.0), _window(1, 0.0), _window(2, 0.0)]
    samples = [(t / 10, 1.0) for t in range(30)] + [(1.55, 500.0)]
    assert median_over(windows, samples, max) == 1.0
    assert median_over(windows[:1], samples, max) == 1.0


def test_proc_readers():
    stat = "42 (we ird) name) S 1 2 3 4 5 6 7 8 9 10 150 50 0 0 20 0 1 0 100 0 0"
    ticks = os.sysconf("SC_CLK_TCK")
    assert cluster.parse_cpu_seconds(stat) == pytest.approx(200 / ticks)
    assert cluster.parse_peak_rss_mb("VmPeak:\t 9 kB\nVmHWM:\t  2048 kB\n") == 2.0
    before = cluster.cpu_seconds(os.getpid())
    sum(i * i for i in range(300_000))
    assert cluster.cpu_seconds(os.getpid()) >= before
    assert cluster.peak_rss_mb(os.getpid()) > 1.0


# -- marker window -------------------------------------------------------------------


class _NullProducer:
    async def publish_many(self, events):
        pass


class _NullCluster:
    ports = {}

    def check_alive(self):
        pass


def test_marker_window_accounting():
    async def scenario():
        inputs = Inputs(WORKLOADS["wire_bound"], 1)
        generator = LoadGenerator(inputs, _NullCluster(), Ledger())
        generator.producer, generator.marker_sid = _NullProducer(), "marker"
        await generator._publish(3 * CHUNK)
        assert generator.outstanding == 3
        await generator._publish(10)  # an open chunk holds no marker yet
        assert generator.outstanding == 3
        await generator._publish(CHUNK - 10)
        assert generator.outstanding == 4
        blocked = asyncio.create_task(generator._await_window(3))
        await asyncio.sleep(0.01)
        assert not blocked.done()
        generator._on_notify("marker", inputs.sent(-1))  # a canary is no ack
        assert generator.outstanding == 4 and generator._canary.is_set()
        generator._on_notify("marker", inputs.sent(CHUNK - 1))
        await asyncio.wait_for(blocked, 1.0)
        assert generator.outstanding == 3
        assert len(generator.deliveries) == 2

    asyncio.run(scenario())


# -- oracle ----------------------------------------------------------------------------


def _oracle_case():
    inputs = Inputs(WORKLOADS["wire_bound"], 5)
    residents = inputs.residents[HOME]
    subscriptions = {f"sid{i}": sub for i, sub in enumerate(residents)}
    sids = list(subscriptions)
    deliveries = [
        (sid, inputs.sent(seq), float(seq))
        for seq in range(4 * CHUNK)
        for sid, sub in subscriptions.items() if sub.matches(inputs.sent(seq))
    ]
    return inputs, subscriptions, sids, deliveries


def _check(inputs, subscriptions, sids, deliveries):
    ledger = Ledger()
    check_deliveries(ledger, deliveries, subscriptions, sids, inputs.sent,
                     range(4 * CHUNK))
    return ledger


def test_oracle_accepts_exact_deliveries():
    inputs, subscriptions, sids, deliveries = _oracle_case()
    ledger = _check(inputs, subscriptions, sids, deliveries)
    assert ledger.expected_deliveries == len(deliveries) > 10
    assert (ledger.failed, ledger.false_deliveries) == (0, 0)


def test_oracle_counts_missing_duplicate_and_false():
    inputs, subscriptions, sids, deliveries = _oracle_case()
    ledger = _check(inputs, subscriptions, sids, deliveries[1:] + [deliveries[5]])
    assert (ledger.missing, ledger.duplicated) == (1, 1)
    unmatched = next(
        seq for seq in range(CHUNK) if not subscriptions[sids[0]].matches(inputs.sent(seq))
    )
    ledger = _check(inputs, subscriptions, sids,
                    deliveries + [(sids[0], inputs.sent(unmatched), 0.0)])
    assert ledger.false_deliveries == 1
    # The right predicate on an event the generator never sent is false too.
    sid, event, _ = deliveries[0]
    forged = inputs.sent(int(event.value("when")) + 4096)
    ledger = _check(inputs, subscriptions, sids, deliveries + [(sid, forged, 0.0)])
    assert ledger.false_deliveries == 1


def test_oracle_sample_stays_in_budget():
    assert sample_stride(100, 16) == 1
    stride = sample_stride(60_000, 1000)
    assert 60_000 // stride * 1000 <= 1_500_000 < 60_000 // (stride - 1) * 1000


def test_failed_requests_enter_the_ledger():
    ledger = Ledger()
    ledger.record_request(True)
    ledger.record_request(False, "timeout")
    assert (ledger.attempted, ledger.failed, ledger.failed_share) == (2, 1, 0.5)


# -- compare ---------------------------------------------------------------------------


def test_compare_flags_only_exceeded_bounds():
    def result(throughput, p50, failed_share=0.0):
        metrics = {m["name"]: 1.0 for m in SPEC["end_to_end"]}
        metrics.update(throughput_evps=throughput, latency_p50_ms=p50)
        return {"workloads": {"w": {"metrics": metrics, "failed_share": failed_share}}}

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    slower = 1.0 - bounds["throughput_evps"] - 0.05
    rows, exceeded = compare.compare(result(1.0, 1.0), result(2.0, 0.5), SPEC["end_to_end"])
    assert not exceeded
    rows, exceeded = compare.compare(result(1.0, 1.0), result(slower, 1.0), SPEC["end_to_end"])
    assert exceeded and sum("EXCEEDED" in row for row in rows) == 1
    _, exceeded = compare.compare(result(1.0, 1.0), result(1.0, 1.0, 1e-6), SPEC["end_to_end"])
    assert exceeded


# -- end to end ------------------------------------------------------------------------


def _smoke(name, traced, tmp_path):
    return asyncio.run(asyncio.wait_for(
        run.run_workload(WORKLOADS[name], 11, 2.0, traced, tmp_path), run.DEADLINE_S
    ))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_two_second_smoke_with_oracle(name, tmp_path):
    record = _smoke(name, False, tmp_path)
    assert record["false_deliveries"] == 0 and record["failed"] == 0
    assert record["ledger"]["expected_deliveries"] > 0
    assert record["correct"], record["broker_warnings"]
    for metric in SPEC["end_to_end"]:
        assert record["metrics"][metric["name"]] > 0, metric["name"]
    assert len(record["setup_s_each"]) == run.SETUPS
    if WORKLOADS[name].churn_ops_per_s:
        assert record["ledger"]["requests"] > 3 * WORKLOADS[name].sigma + 40


def test_traced_smoke_reports_every_layer(tmp_path):
    record = _smoke("churn_mixed", True, tmp_path)
    assert record["correct"], record["broker_warnings"]
    for metric in SPEC["per_layer"]:
        assert metric["name"] in record["metrics"], metric["name"]
    assert 0.5 < record["metrics"]["trace.coverage_share"] < 1.1
    assert record["metrics"]["summary.match_us"] > 0
    assert record["metrics"]["broker.propagation.delta_bytes_per_period"] > 10
    assert set(record["by_role"]) == {"ingress", "hub", "home"}
