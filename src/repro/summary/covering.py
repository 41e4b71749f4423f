"""Subscription subsumption (covering), for Siena and covered-id suppression.

Paper section 2.2: "an attribute-value constraint of a subscription is said
to be subsumed by that of another subscription if the values are the same
(equality operator) or if it is contained (prefix/suffix/containment
operators).  A subscription is said to be subsumed by another, if all
attribute constraints of the former are subsumed by the attribute
constraints of the latter."

We implement covering on *event languages*: ``covers(general, specific)``
is True only when every event matching ``specific`` also matches
``general``.  Two consequences worth spelling out:

* ``general`` must not constrain an attribute that ``specific`` leaves
  unconstrained — ``specific`` would admit events missing (or free in)
  that attribute.
* per attribute, the *conjunction* of the specific constraints must imply
  the conjunction of the general ones; for arithmetic attributes this is
  exact interval-set containment, for string attributes a sound pattern
  check (Siena-style covering is itself conservative, so soundness is the
  contract that matters: a ``True`` may never lose events).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence, Tuple

from repro.model.constraints import Constraint
from repro.model.subscriptions import Subscription
from repro.summary.intervals import IntervalSet, intervals_for_conjunction
from repro.summary.patterns import StringPattern, pattern_for_constraint

__all__ = ["constraint_covers", "subscription_covers"]


# Covering runs pairwise over large subscription populations (a Siena
# broker checks each arriving subscription against everything already
# forwarded), so the constraint->canonical-form translations are cached.
# The cached values are treated as immutable by every caller here.
@lru_cache(maxsize=65536)
def _conjunction_intervals(constraints: Tuple[Constraint, ...]) -> IntervalSet:
    return intervals_for_conjunction(constraints)


@lru_cache(maxsize=65536)
def _constraint_pattern(constraint: Constraint) -> StringPattern:
    return pattern_for_constraint(constraint)


def constraint_covers(general: Constraint, specific: Constraint) -> bool:
    """Whether every value satisfying ``specific`` satisfies ``general``.

    Both constraints must be on the same attribute family; comparing
    constraints of different attributes is a caller bug.
    """
    if general.attr_type.is_string != specific.attr_type.is_string:
        raise ValueError(
            f"cannot compare {general.attr_type.value} and "
            f"{specific.attr_type.value} constraints"
        )
    if general.attr_type.is_string:
        return pattern_for_constraint(general).covers(pattern_for_constraint(specific))
    general_set = intervals_for_conjunction([general])
    specific_set = intervals_for_conjunction([specific])
    return general_set.covers_set(specific_set)


def subscription_covers(general: Subscription, specific: Subscription) -> bool:
    """Whether every event matching ``specific`` matches ``general``."""
    if not general.attribute_names <= specific.attribute_names:
        # ``specific`` admits events that are free in (or lack) some
        # attribute that ``general`` constrains.
        return False
    for name in general.attribute_names:
        specific_constraints = specific.constraints_on(name)
        general_constraints = general.constraints_on(name)
        if general_constraints[0].attr_type.is_string:
            if not _string_conjunction_covers(general_constraints, specific_constraints):
                return False
        else:
            general_set = _conjunction_intervals(general_constraints)
            specific_set = _conjunction_intervals(specific_constraints)
            if not general_set.covers_set(specific_set):
                return False
    return True


def _string_conjunction_covers(
    general: Sequence[Constraint], specific: Sequence[Constraint]
) -> bool:
    """Sound check that conj(specific) implies conj(general) on one
    attribute: every general pattern must cover at least one specific
    pattern (the specific conjunction's language is inside each of its
    members, hence inside any pattern covering a member)."""
    general_patterns = [_constraint_pattern(c) for c in general]
    specific_patterns: Sequence[StringPattern] = [
        _constraint_pattern(c) for c in specific
    ]
    return all(
        any(gp.covers(sp) for sp in specific_patterns) for gp in general_patterns
    )
