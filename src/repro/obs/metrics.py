"""The metrics registry: named event counters.

A :class:`MetricsRegistry` is the quantitative half of :mod:`repro.obs`
(the event bus is the qualitative half).  It follows the same
determinism contract as the journal (see :mod:`repro.obs.events`):
counters are pure functions of what the run computed, so their
snapshot is safe to embed in journals, reports and benchmark records.

Pool workers never hold a registry.  The runners count at their
in-order effect point from the unit outcomes.
"""

from __future__ import annotations

from typing import Any

__all__ = ["MetricsRegistry"]


class MetricsRegistry:
    """Accumulate named counters.

    Attributes:
        counters: Monotonically increasing event tallies.
    """

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}

    def inc(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name`` (creating it at zero)."""
        self.counters[name] = self.counters.get(name, 0) + n

    def snapshot(self) -> dict[str, Any]:
        """A JSON-serialisable view: ``{"counters": {...}}``, keys sorted."""
        return {"counters": dict(sorted(self.counters.items()))}
