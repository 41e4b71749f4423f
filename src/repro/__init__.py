"""repro — Subscription Summarization for Publish/Subscribe Systems.

A full reproduction of Triantafillou & Economides, "Subscription
Summarization: A New Paradigm for Efficient Publish/Subscribe Systems"
(ICDCS 2004): the AACS/SACS summary structures, the Algorithm-1 matcher,
multi-broker summaries with Algorithm-2 propagation and Algorithm-3
BROCLI event routing, a Siena-style comparator, a broadcast baseline, and
the complete evaluation harness for figures 8-11.

Quickstart::

    from repro import SummaryPubSub, stock_schema, parse_subscription, Event
    from repro.network import cable_wireless_24

    system = SummaryPubSub(cable_wireless_24(), stock_schema())
    sid = system.subscribe(3, parse_subscription(
        system.schema, "symbol = OTE AND price < 8.70 AND price > 8.30"))
    system.run_propagation_period()
    result = system.publish(17, Event.of(symbol="OTE", price=8.40))
    assert result.matched_brokers == {3}
"""

from repro.baseline import BroadcastPubSub
from repro.broker import Delivery, PublishResult, SummaryBroker, SummaryPubSub
from repro.clients import Consumer, Producer
from repro.model import (
    AttributeSpec,
    Query,
    AttributeType,
    Constraint,
    Event,
    IdCodec,
    Operator,
    Schema,
    Subscription,
    SubscriptionId,
    parse_constraint,
    parse_query,
    parse_subscription,
    stock_schema,
)
from repro.network import Network, Topology, cable_wireless_24, paper_example_tree
from repro import runtime as _runtime
from repro.siena import SienaProbModel, SienaPubSub
from repro.summary import (
    AACS,
    SACS,
    BrokerSummary,
    CompiledMatcher,
    MaintainedSummary,
    NaiveMatcher,
    Precision,
    SubscriptionStore,
    match_event,
)
from repro.workload import StockWorkload, WorkloadConfig, WorkloadGenerator

__version__ = "1.0.0"

#: The live runtime's classes load on first access (PEP 562), like
#: :mod:`repro.runtime` itself, so ``python -m repro.runtime.server``
#: does not find its module already imported by this package.
_RUNTIME_EXPORTS = frozenset(
    {"BrokerRuntime", "LocalCluster", "ProducerSession", "SubscriberSession"}
)


def __getattr__(name: str) -> object:
    if name not in _RUNTIME_EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_runtime, name)


__all__ = [
    "AACS",
    "AttributeSpec",
    "AttributeType",
    "BroadcastPubSub",
    "BrokerRuntime",
    "BrokerSummary",
    "CompiledMatcher",
    "Consumer",
    "Constraint",
    "Delivery",
    "Event",
    "IdCodec",
    "LocalCluster",
    "MaintainedSummary",
    "NaiveMatcher",
    "Network",
    "Operator",
    "Precision",
    "Producer",
    "ProducerSession",
    "PublishResult",
    "Query",
    "SACS",
    "Schema",
    "SienaProbModel",
    "SienaPubSub",
    "StockWorkload",
    "Subscription",
    "SubscriptionId",
    "SubscriberSession",
    "SubscriptionStore",
    "SummaryBroker",
    "SummaryPubSub",
    "Topology",
    "WorkloadConfig",
    "WorkloadGenerator",
    "__version__",
    "cable_wireless_24",
    "match_event",
    "paper_example_tree",
    "parse_constraint",
    "parse_query",
    "parse_subscription",
    "stock_schema",
]
