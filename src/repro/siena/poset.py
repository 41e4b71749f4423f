"""Covering-minimized subscription sets (Siena's routing-table building block).

Siena's propagation rule — "a subscription is not forwarded by a broker to
another broker if the former has already forwarded to the latter a
subscription that subsumes this one" — needs, per peer, the set of
subscriptions already forwarded, minimized under covering.
:class:`CoveringSet` is that set: inserting a covered subscription is a
no-op (returns False), and inserting a more general one evicts the members
it covers.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.model.events import Event
from repro.model.subscriptions import Subscription
from repro.summary.covering import subscription_covers

__all__ = ["CoveringSet"]


class CoveringSet:
    """A set of subscriptions with no member covering another.

    Members are indexed by their constrained-attribute signature: a
    subscription can only cover another whose attribute set is a superset
    of its own, so covering checks touch only the signature groups that
    pass the (cheap) subset test.  With Table-2 workloads this prunes the
    quadratic pairwise scan by one to two orders of magnitude.
    """

    __slots__ = ("_groups", "_count")

    def __init__(self) -> None:
        self._groups: dict = {}  # FrozenSet[str] -> List[Subscription]
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[Subscription]:
        for group in self._groups.values():
            yield from group

    @property
    def members(self) -> Tuple[Subscription, ...]:
        return tuple(self)

    def covers(self, subscription: Subscription) -> bool:
        """Whether an existing member subsumes ``subscription``."""
        names = subscription.attribute_names
        for signature, group in self._groups.items():
            if signature <= names:
                if any(subscription_covers(member, subscription) for member in group):
                    return True
        return False

    def add(self, subscription: Subscription) -> bool:
        """Insert unless covered.  Returns True when the set changed (the
        subscription became a member, possibly evicting covered members)."""
        if self.covers(subscription):
            return False
        names = subscription.attribute_names
        for signature in list(self._groups):
            if names <= signature:
                group = self._groups[signature]
                survivors = [
                    member
                    for member in group
                    if not subscription_covers(subscription, member)
                ]
                self._count -= len(group) - len(survivors)
                if survivors:
                    self._groups[signature] = survivors
                else:
                    del self._groups[signature]
        self._groups.setdefault(names, []).append(subscription)
        self._count += 1
        return True

    def matches_event(self, event: Event) -> bool:
        """Whether any member matches — Siena forwards an event towards a
        peer iff the peer's covering set matches it."""
        return any(member.matches(event) for member in self)

    def __repr__(self) -> str:
        return f"CoveringSet({self._count} members)"

