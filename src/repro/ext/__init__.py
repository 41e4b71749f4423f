"""Section-6 extensions: advertisements, virtual degrees, locality-aware
routing and dynamic schemata.  Hybrid summarization+subsumption is the
covered-id suppression every :class:`~repro.broker.broker.SummaryBroker`
runs by default."""

from repro.ext.advertisements import (
    Advertisement,
    AdvertisementError,
    AdvertisingBroker,
    AdvertisingPubSub,
    constraints_intersect,
    subscription_intersects_advertisement,
)
from repro.ext.dynamic_schema import DynamicSchema, VersionedIdCodec
from repro.ext.locality import LocalityRouter, enable_locality
from repro.ext.virtual_degrees import (
    VirtualDegreeRouter,
    enable_virtual_degrees,
    hub_load_spread,
)

__all__ = [
    "Advertisement",
    "AdvertisementError",
    "AdvertisingBroker",
    "AdvertisingPubSub",
    "DynamicSchema",
    "LocalityRouter",
    "VersionedIdCodec",
    "VirtualDegreeRouter",
    "constraints_intersect",
    "enable_locality",
    "enable_virtual_degrees",
    "hub_load_spread",
    "subscription_intersects_advertisement",
]
