"""What one work unit's evaluation hands back, and its deadline rule.

A campaign unit (:class:`~repro.runner.evaluate.UnitEvaluator`) and a
streaming-lot shard (:class:`~repro.experiment.streaming.engine.
ShardEvaluator`) both return a :class:`UnitOutcome`, and both stop a
unit that overruns its wall-clock budget with
:class:`UnitDeadlineExceeded`.  The module needs only the stdlib and
:mod:`repro.runner.retry`, so the lot, which evaluates shards and no
campaign unit, loads neither the campaign nor its site loop.

:class:`UnitOutcome` is also the unit of observability: it carries
everything the run journal (:mod:`repro.obs`) reports about a unit --
record, retry statistics, quarantine entries -- so events are emitted
once, parent-side, when the outcome is consumed, never from inside
evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.runner.retry import RetryStats

if TYPE_CHECKING:
    from repro.core.records import CoverageRecord


class UnitDeadlineExceeded(RuntimeError):
    """A work unit overran the runner's per-unit wall-clock budget.

    Deliberately fatal rather than silently skipping sites: skipping
    would make the emitted records depend on machine speed.  The
    checkpoint keeps every completed unit, so the campaign is resumable
    after the stall's cause is fixed.
    """


def check_unit_deadline(unit_deadline: float | None) -> None:
    """Raise ValueError for a per-unit budget that is set but not > 0."""
    if unit_deadline is not None and unit_deadline <= 0:
        raise ValueError("unit_deadline must be positive")


@dataclass
class UnitOutcome:
    """Everything one work unit's evaluation produced.

    Attributes:
        index: The unit's position in the campaign plan.
        unit_id: The unit's stable checkpoint key.
        record: The emitted coverage record (a streaming shard's
            accumulator payload).
        quarantine: Error-ledger entries for sites that exhausted the
            retry budget (in site order).
        stats: Retry counters accumulated while evaluating this unit.
    """

    index: int
    unit_id: str
    record: CoverageRecord
    quarantine: list[dict[str, Any]] = field(default_factory=list)
    stats: RetryStats = field(default_factory=RetryStats)
