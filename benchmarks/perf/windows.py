"""One-second windows over a measured phase, and which of them were quiet."""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from benchmarks.perf.cluster import Cluster, host_cpu_ticks

__all__ = ["Window", "WindowRecorder", "median_over", "quiet_windows", "reduce_each"]

#: Both phases are cut into windows of about this many seconds; every
#: metric is a median or a total over the *quiet* windows.
WINDOW_SECONDS = 1.0
#: A window in which the hypervisor gave more than this share of the
#: guest's CPU time to someone else is disturbed, not quiet.
QUIET_STEAL_SHARE = 0.05

_clock = time.perf_counter


@dataclass
class Window:
    start: float
    end: float
    #: share of the guest's CPU time the host took away during the window
    steal_share: float
    #: CPU seconds each broker process used during the window
    broker_cpu: Dict[int, float]


class WindowRecorder:
    """Cuts a phase into windows and reads, at each cut, the clocks that
    say what the brokers used and what the host took.

    This box is a shared microVM: for seconds at a time the hypervisor
    runs someone else on our cores (``steal`` in ``/proc/stat``), and under
    20 % steal throughput nearly halves and CPU time per event rises by
    10-25 %.  That is the weather, not the system under test, so metrics
    are taken over the windows the weather left alone.  A phase that has
    seen too few of those when its time is up may run on — at most as long
    again — until it has.
    """

    def __init__(self, cluster: Cluster, seconds: float):
        self._cluster = cluster
        self._seconds = seconds
        #: quiet windows a phase needs: a third of what its length holds
        self.needed = -(-max(1, round(seconds / WINDOW_SECONDS)) // 3)
        self._cuts = [self._read()]
        self._windows: List[Window] = []

    def _read(self):
        return _clock(), host_cpu_ticks(), self._cluster.cpu_seconds()

    def _cut(self) -> None:
        self._cuts.append(self._read())
        (start, host_a, cpu_a), (end, host_b, cpu_b) = self._cuts[-2:]
        self._windows.append(Window(
            start, end,
            (host_b["steal"] - host_a["steal"]) / max(1, host_b["total"] - host_a["total"]),
            {broker: cpu_b[broker] - cpu_a[broker] for broker in cpu_a},
        ))

    def tick(self) -> None:
        if _clock() - self._cuts[-1][0] >= WINDOW_SECONDS:
            self._cut()

    def wants_more(self) -> bool:
        """Past its nominal length: is the phase still short of quiet
        windows, and younger than twice that length?"""
        quiet = sum(w.steal_share <= QUIET_STEAL_SHARE for w in self._windows)
        return quiet < self.needed and _clock() - self._cuts[0][0] < 2 * self._seconds

    def close(self) -> List[Window]:
        if self._windows and _clock() - self._cuts[-1][0] < WINDOW_SECONDS / 2:
            self._cuts.pop()  # a stub: let the last full window absorb it
            self._windows.pop()
        self._cut()
        return self._windows


def quiet_windows(windows: List[Window], needed: int) -> Tuple[List[Window], bool]:
    """The windows to measure over, and whether they really are quiet.
    When fewer than ``needed`` are, the ``needed`` calmest stand in for
    them and the run is not valid: its numbers are the least disturbed
    this run has, not undisturbed ones."""
    calmest = sorted(windows, key=lambda window: window.steal_share)
    quiet = [w for w in calmest if w.steal_share <= QUIET_STEAL_SHARE]
    kept = quiet if len(quiet) >= needed else calmest[:needed]
    return sorted(kept, key=lambda window: window.start), kept is quiet


def reduce_each(windows: Sequence[Window], samples: Sequence[Tuple[float, float]],
                reduce: Callable[[List[float]], float]) -> List[Optional[float]]:
    """Reduce the ``(time, value)`` samples falling in each window (None
    for a window without samples)."""
    reduced: List[Optional[float]] = []
    for window in windows:
        values = [value for at, value in samples if window.start <= at < window.end]
        reduced.append(reduce(values) if values else None)
    return reduced


def median_over(windows: Sequence[Window], samples: Sequence[Tuple[float, float]],
                reduce: Callable[[List[float]], float]) -> float:
    """The median over the windows of each window's reduced samples."""
    return statistics.median(
        value for value in reduce_each(windows, samples, reduce) if value is not None
    )
