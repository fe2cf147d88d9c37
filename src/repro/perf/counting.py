"""Invocation-counting wrapper: speedup claims as call-count facts.

Wall-clock timings are machine- and load-dependent; invocation counts
are not.  :class:`CountingBehaviorModel` lets benchmarks and tests
assert the fast paths (the grid evaluator in :mod:`repro.perf.batch`,
the boundary-traced shmoo in :mod:`repro.tester.shmoo`) as
*deterministic call-count inequalities* -- "the grid sweep issued 5x
fewer ``fails_condition`` calls" -- instead of flaky timing comparisons.

The wrapper is transparent: it delegates every evaluation verbatim
(records and grids stay byte-identical to unwrapped runs) and keeps its
counter in an underscore-prefixed attribute.
"""

from __future__ import annotations

from typing import Any

__all__ = ["CountingBehaviorModel"]


class CountingBehaviorModel:
    """A behaviour model that counts its evaluation calls.

    Counts ``fails_condition`` and ``manifestation`` calls (the two
    scalar evaluation entry points); the vectorised ``evaluate_batch``
    and ``evaluate_elements`` hooks delegate *uncounted* -- the whole
    point of the kernel is that one call replaces many scalar
    evaluations.  Other attributes delegate transparently, so the
    wrapper composes with any model exposing the duck interface.

    Args:
        inner: The behaviour model to wrap.
    """

    def __init__(self, inner: Any) -> None:
        self.inner = inner
        self._calls = 0

    @property
    def calls(self) -> int:
        """Evaluation calls issued through this wrapper so far."""
        return self._calls

    def reset(self) -> None:
        """Zero the call counter."""
        self._calls = 0

    def fails_condition(self, defect: Any, condition: Any) -> bool:
        """Counted delegation to the inner model's fast predicate."""
        self._calls += 1
        return self.inner.fails_condition(defect, condition)

    def manifestation(self, defect: Any, condition: Any) -> Any:
        """Counted delegation to the inner model's full evaluation."""
        self._calls += 1
        return self.inner.manifestation(defect, condition)

    def __getattr__(self, name: str) -> Any:
        """Uncounted delegation of everything else (the kernel hooks,
        calibration attributes, analytic helpers)."""
        if name == "inner":
            raise AttributeError(name)
        return getattr(self.inner, name)
