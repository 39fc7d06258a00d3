"""Deadlines, cooperative cancellation, and overload protection.

One :class:`Budget` per session replaces the serving plane's stacked flat
timeouts (admission 30s + scheduler 120s + 30s per channel
receive) with a single client-owned clock, carries the cooperative-cancel
flag every layer observes, and meters retries through a shared
:class:`RetryTokenBucket`.  See DESIGN.md §12.
"""

from repro.runtime.budget import (
    Budget,
    RetryTokenBucket,
    budget_check,
    budget_remaining,
)

__all__ = ["Budget", "RetryTokenBucket", "budget_check", "budget_remaining"]
