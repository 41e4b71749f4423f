"""Subscription summaries — the paper's core contribution (sections 3-4.1).

Exports the AACS/SACS structures, the interval and pattern algebras they
build on, the :class:`BrokerSummary` facade, Algorithm-1 matching, and the
maintenance layer (stores, rebuilds, exact re-check).
"""

from repro.summary.aacs import AACS, RangeRow
from repro.summary.compiled import CompiledMatcher, CompiledStats
from repro.summary.intervals import (
    FULL_LINE,
    Interval,
    IntervalSet,
    interval_for_constraint,
    intervals_for_conjunction,
)
from repro.summary.maintenance import MaintainedSummary, SubscriptionStore
from repro.summary.owner import OwnerIndex
from repro.summary.matching import (
    MatchDetails,
    NaiveMatcher,
    match_event,
    match_event_detailed,
)
from repro.summary.patterns import (
    ConjunctionPattern,
    GlobPattern,
    NotEqualsPattern,
    StringPattern,
    pattern_for_constraint,
    pattern_hull,
    patterns_disjoint,
)
from repro.summary.precision import Precision
from repro.summary.sacs import SACS, PatternRow
from repro.summary.summary import BrokerSummary, SummaryStats

__all__ = [
    "AACS",
    "FULL_LINE",
    "BrokerSummary",
    "CompiledMatcher",
    "CompiledStats",
    "ConjunctionPattern",
    "GlobPattern",
    "Interval",
    "IntervalSet",
    "MaintainedSummary",
    "MatchDetails",
    "NaiveMatcher",
    "NotEqualsPattern",
    "OwnerIndex",
    "PatternRow",
    "Precision",
    "RangeRow",
    "SACS",
    "StringPattern",
    "SubscriptionStore",
    "SummaryStats",
    "interval_for_constraint",
    "intervals_for_conjunction",
    "match_event",
    "match_event_detailed",
    "pattern_for_constraint",
    "pattern_hull",
    "patterns_disjoint",
]
