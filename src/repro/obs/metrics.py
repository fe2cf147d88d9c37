"""The metrics registry: counters, gauges and monotonic timers.

A :class:`MetricsRegistry` is the quantitative half of :mod:`repro.obs`
(the event bus is the qualitative half).  It follows the same
determinism contract as the journal (see :mod:`repro.obs.events`):

* counters and gauges are pure functions of what the run computed, so
  their snapshot is safe to embed in journals, reports and benchmark
  records;
* timers read :func:`time.monotonic` (never wall clock) and are
  *excluded* from :meth:`MetricsRegistry.snapshot` by default -- timing
  is real observability but would break byte-identical journals, so a
  caller must opt in with ``include_timers=True``.

Pool workers never hold a registry.  The runners count at their
in-order effect point from the unit outcomes, and
:meth:`merge` exists for callers that aggregate registries from
multiple sequential runs (e.g. a soak harness folding per-iteration
registries into one).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

__all__ = ["MetricsRegistry"]


class MetricsRegistry:
    """Accumulate named counters, gauges and monotonic timers.

    Args:
        clock: Monotonic time source, injectable for tests.  Defaults
            to :func:`time.monotonic`.

    Attributes:
        counters: Monotonically increasing event tallies.
        gauges: Last-write-wins instantaneous values.
        timers: Per-name ``{"count": n, "total_s": seconds}`` from
            :meth:`timer` blocks.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self._clock = clock
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        self.timers: dict[str, dict[str, float]] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def inc(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name`` (creating it at zero)."""
        self.counters[name] = self.counters.get(name, 0) + n

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        self.gauges[name] = value

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Time a ``with`` block against monotonic timer ``name``.

        Accumulates into ``timers[name]`` as a (count, total seconds)
        pair; never touches the wall clock.
        """
        start = self._clock()
        try:
            yield
        finally:
            elapsed = self._clock() - start
            slot = self.timers.setdefault(
                name, {"count": 0, "total_s": 0.0})
            slot["count"] += 1
            slot["total_s"] += elapsed

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one.

        Counters and timer totals add; gauges follow last-write-wins
        (the merged-in registry is treated as the later writer).
        """
        for name, value in other.counters.items():
            self.inc(name, value)
        self.gauges.update(other.gauges)
        for name, slot in other.timers.items():
            mine = self.timers.setdefault(
                name, {"count": 0, "total_s": 0.0})
            mine["count"] += slot["count"]
            mine["total_s"] += slot["total_s"]

    def snapshot(self, include_timers: bool = False) -> dict[str, Any]:
        """A JSON-serialisable view of the registry.

        Args:
            include_timers: Opt in to the (non-deterministic) timer
                section.  The default omits it so snapshots are safe
                to embed in byte-identity-checked artefacts.

        Returns:
            ``{"counters": {...}, "gauges": {...}}`` with keys sorted,
            plus ``"timers"`` when requested.
        """
        view: dict[str, Any] = {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
        }
        if include_timers:
            view["timers"] = {
                name: dict(slot)
                for name, slot in sorted(self.timers.items())
            }
        return view
