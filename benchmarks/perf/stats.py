"""Order statistics used by the harness (no numpy: the generator must
stay a small process)."""

from __future__ import annotations

import bisect
from typing import Sequence

__all__ = ["completed_by", "percentile"]


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated quantile (numpy's default definition)."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = fraction * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def completed_by(times: Sequence[float], amount: float, origin: float, at: float) -> float:
    """Units completed by time ``at`` when ``amount`` units complete at
    each of the ascending ``times`` (the first batch started at
    ``origin``).  Linear between completions, so a window edge falling
    between two completions splits that batch instead of handing all of it
    to one side: with 64-event batches at ~1000 events/s the unsplit count
    of a one-second window moves in 6 % steps."""
    index = bisect.bisect_right(times, at)
    if index == len(times):
        return amount * len(times)
    before = times[index - 1] if index else origin
    return amount * (index + max(0.0, at - before) / (times[index] - before))
