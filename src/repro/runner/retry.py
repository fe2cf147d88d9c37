"""Bounded retry: a failing call gets a fixed number of attempts.

Long campaigns treat a failing evaluation as an *input*, not a verdict:
a transient failure (an injected chaos fault, a flaky model) deserves
another attempt; a persistent one moves its site to quarantine after
``max_attempts`` tries instead of burning the unit's time budget.
Retries never sleep: evaluations are in-memory and deterministic, so a
wait buys nothing, and a resumed campaign re-executes a unit with
exactly the attempts the first run would have made.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import TypeVar

T = TypeVar("T")


class RetryExhaustedError(RuntimeError):
    """All attempts failed; carries the full failure history.

    Attributes:
        key: The call key the retry loop ran under.
        attempts: Number of attempts actually made.
        causes: One exception per attempt, oldest first (the last is
            also the ``__cause__``).
    """

    def __init__(self, key: str, causes: Sequence[BaseException]) -> None:
        self.key = key
        self.attempts = len(causes)
        self.causes = list(causes)
        last = causes[-1] if causes else None
        detail = f": {type(last).__name__}: {last}" if last else ""
        super().__init__(
            f"{key}: gave up after {self.attempts} attempt(s){detail}")


def check_max_attempts(max_attempts: int) -> None:
    """Raise ValueError for an attempt count below one."""
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")


@dataclass
class RetryStats:
    """Counters accumulated by :func:`run_with_retry` callers.

    Attributes:
        calls: Number of retry-wrapped calls started.
        retries: Number of additional attempts made after a failure.
        exhausted: Calls that failed every attempt.
        errors: Human-readable ``key: ExcType: message`` strings, one
            per failed attempt, oldest first.  Bounded: the list keeps
            the first :data:`ERRORS_HEAD` and the most recent
            :data:`ERRORS_TAIL` messages; anything between is dropped
            and counted in ``errors_elided``, so a chaos soak's
            millions of injected faults cannot balloon the campaign
            result (or anything derived from it).  Under the cap the
            list is byte-identical to the unbounded behaviour.
        errors_elided: Messages dropped by the cap (0 under the cap).
    """

    #: Oldest error messages always retained.
    ERRORS_HEAD = 8
    #: Most recent error messages always retained.
    ERRORS_TAIL = 8

    calls: int = 0
    retries: int = 0
    exhausted: int = 0
    errors: list[str] = field(default_factory=list)
    errors_elided: int = 0

    def record_error(self, message: str) -> None:
        """Append one failed-attempt message, enforcing the cap.

        Keeps the first ``ERRORS_HEAD`` and last ``ERRORS_TAIL``
        messages; once full, the oldest *tail* message is dropped (and
        counted in ``errors_elided``) to make room, so the head stays
        frozen and the tail slides.
        """
        if len(self.errors) < self.ERRORS_HEAD + self.ERRORS_TAIL:
            self.errors.append(message)
            return
        del self.errors[self.ERRORS_HEAD]
        self.errors.append(message)
        self.errors_elided += 1

    def error_log(self) -> list[str]:
        """The error messages, with an elision marker when capped.

        Returns:
            ``errors`` verbatim under the cap; otherwise the head,
            a ``... N error(s) elided ...`` marker, then the tail.
        """
        if not self.errors_elided:
            return list(self.errors)
        return (self.errors[:self.ERRORS_HEAD]
                + [f"... {self.errors_elided} error(s) elided ..."]
                + self.errors[self.ERRORS_HEAD:])

    def merge(self, other: "RetryStats") -> None:
        """Fold another counter set into this one (in call order).

        Used by the campaign runner to combine per-unit counters --
        accumulated independently per unit (and per worker process)
        -- into one campaign-wide tally whose totals and error order
        match a serial run.  The retained messages are replayed through
        :meth:`record_error`, so the merged ledger honours the same cap
        a serial accumulation would.

        Args:
            other: Counters to add; left unmodified.
        """
        self.calls += other.calls
        self.retries += other.retries
        self.exhausted += other.exhausted
        self.errors_elided += other.errors_elided
        for message in other.errors:
            self.record_error(message)


def run_with_retry(fn: Callable[[], T], max_attempts: int, key: str,
                   stats: RetryStats | None = None) -> T:
    """Call ``fn`` up to ``max_attempts`` times; return its first value.

    Any ``Exception`` earns another attempt; a ``BaseException`` (an
    interrupt, an injected crash) propagates from the failing attempt
    as-is.

    Args:
        fn: Zero-argument callable (bind arguments with a closure).
        max_attempts: Total tries (1 = no retry).
        key: Stable identity of this call, used in error messages.
        stats: Optional counters to accumulate into.

    Raises:
        RetryExhaustedError: every attempt raised an ``Exception``.
    """
    if stats is not None:
        stats.calls += 1
    causes: list[Exception] = []
    for attempt in range(1, max_attempts + 1):
        try:
            return fn()
        except Exception as exc:
            causes.append(exc)
            if stats is not None:
                stats.record_error(f"{key}: {type(exc).__name__}: {exc}")
                if attempt < max_attempts:
                    stats.retries += 1
    if stats is not None:
        stats.exhausted += 1
    raise RetryExhaustedError(key, causes) from causes[-1]
