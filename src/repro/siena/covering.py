"""Siena's import path for subscription covering (subsumption), which
lives in :mod:`repro.summary.covering`, below the broker that uses it."""

from repro.summary.covering import constraint_covers, subscription_covers

__all__ = ["constraint_covers", "subscription_covers"]
