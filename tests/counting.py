"""Invocation-counting test fakes for the tester and the event bus.

Like :class:`repro.perf.counting.CountingBehaviorModel`, each wrapper
delegates every call verbatim and counts one entry point, so a test can
check a runner's self-reported statistics, or the journal-off promise
of zero event-bus invocations, as a call-count fact.
"""

from __future__ import annotations

from typing import Any


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
