"""Invocation-counting wrappers: speedup claims as call-count facts.

Wall-clock timings are machine- and load-dependent; invocation counts
are not.  These wrappers let benchmarks and tests assert the fast
paths (the grid evaluator in :mod:`repro.perf.batch`, the
boundary-traced shmoo in :mod:`repro.tester.shmoo`) as *deterministic
call-count inequalities* -- "the grid sweep issued 5x fewer
``fails_condition`` calls" -- instead of flaky timing comparisons.

Both wrappers are transparent: they delegate every evaluation verbatim
(records and grids stay byte-identical to unwrapped runs) and keep
their counters in underscore-prefixed attributes.
"""

from __future__ import annotations

from typing import Any

__all__ = ["CountingBehaviorModel", "CountingEventBus", "CountingTester"]


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


class CountingTester:
    """A virtual tester that counts ``test_device`` invocations.

    The shmoo benchmark's unit of cost is one tester invocation (one
    march-test execution at one grid point); this wrapper makes that
    count observable from outside the runner, so tests can verify the
    runner's self-reported statistics against an independent tally.

    Args:
        inner: The :class:`~repro.tester.ate.VirtualTester` to wrap.
    """

    def __init__(self, inner: Any) -> None:
        self.inner = inner
        self._calls = 0

    @property
    def calls(self) -> int:
        """``test_device`` calls issued through this wrapper so far."""
        return self._calls

    def reset(self) -> None:
        """Zero the call counter."""
        self._calls = 0

    def test_device(self, *args: Any, **kwargs: Any) -> Any:
        """Counted delegation to the inner tester."""
        self._calls += 1
        return self.inner.test_device(*args, **kwargs)

    def __getattr__(self, name: str) -> Any:
        """Uncounted delegation of everything else."""
        if name == "inner":
            raise AttributeError(name)
        return getattr(self.inner, name)


class CountingEventBus:
    """An event bus that counts its ``emit`` invocations.

    Wraps a real :class:`~repro.obs.bus.EventBus` and delegates
    everything; only ``emit`` is counted.  The observability layer's
    cost claim -- *journal off means zero event-bus invocations on the
    hot path* -- becomes a call-count assertion with this wrapper, the
    same way :class:`CountingBehaviorModel` turns speedup claims into
    call-count inequalities.

    Args:
        inner: The :class:`~repro.obs.bus.EventBus` to wrap.
    """

    def __init__(self, inner: Any) -> None:
        self.inner = inner
        self._calls = 0

    @property
    def calls(self) -> int:
        """``emit`` calls issued through this wrapper so far."""
        return self._calls

    def reset(self) -> None:
        """Zero the call counter."""
        self._calls = 0

    def emit(self, name: str, **data: Any) -> Any:
        """Counted delegation to the inner bus."""
        self._calls += 1
        return self.inner.emit(name, **data)

    def __getattr__(self, name: str) -> Any:
        """Uncounted delegation of everything else (``set_meta``,
        ``flush``, ``render``, ``events``...)."""
        if name == "inner":
            raise AttributeError(name)
        return getattr(self.inner, name)
