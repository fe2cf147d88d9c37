"""The resilient campaign runner: interruptible, resumable, fault-tolerant.

Ties the subsystem together.  A campaign -- the paper's long
one-defect-at-a-time simulation sweep that builds the "database with
pre-calculated simulation results" (Section 3) -- becomes:

1. **decompose** (:mod:`repro.runner.units`): the R x condition sweep
   flattens into an ordered list of independent work units;
2. **evaluate** (:mod:`repro.runner.evaluate`): each site's behavioural
   evaluation runs under a retry policy; sites that keep failing are
   *quarantined* into an error ledger and counted in the emitted
   record's ``errors`` field -- the campaign degrades gracefully
   instead of dying on one pathological site.  The runner answers
   each (kind, condition) group's site x R grid in one vectorised
   call (:mod:`repro.perf.batch`);
3. **persist** (:mod:`repro.runner.checkpoint`): after each completed
   unit the progress is checkpointed crash-safely, so ``kill -9`` costs
   at most the unit in flight;
4. **resume**: re-running against the same checkpoint skips completed
   units and re-emits their stored payloads, producing records
   byte-identical to an uninterrupted run (site populations are
   regenerated deterministically from the campaign seed).

The chaos harness (:mod:`repro.runner.chaos`) plugs into both the
behaviour model and the checkpoint I/O, so every one of those recovery
paths is exercised by tests rather than discovered in production.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.defects.models import DefectKind
from repro.ifa.flow import CoverageRecord
from repro.runner.checkpoint import CampaignCheckpoint
from repro.runner.evaluate import UnitDeadlineExceeded, UnitOutcome
from repro.runner.retry import RetryPolicy, RetryStats
from repro.runner.units import WorkUnit, plan_units
from repro.stress import StressCondition

if TYPE_CHECKING:
    from repro.ifa.flow import IfaCampaign

__all__ = [
    "CampaignResult",
    "CampaignRunner",
    "SweepSpec",
    "UnitDeadlineExceeded",
    "condition_fingerprint",
    "record_from_payload",
    "record_to_payload",
    "sweep_meta",
]


@dataclass(frozen=True)
class SweepSpec:
    """One defect kind's share of a campaign (R grid x condition set).

    Attributes:
        kind: Defect kind of the sweep.
        resistances: Resistance grid (ohms).
        conditions: Stress conditions evaluated at every grid point.
    """

    kind: DefectKind
    resistances: tuple[float, ...]
    conditions: tuple[StressCondition, ...]

    @classmethod
    def of(cls, kind: DefectKind, resistances: Sequence[float],
           conditions: Iterable[StressCondition]) -> "SweepSpec":
        """Build a spec, coercing the grid to floats and tuples."""
        return cls(kind, tuple(float(r) for r in resistances),
                   tuple(conditions))


@dataclass
class CampaignResult:
    """Everything a runner execution produced.

    Attributes:
        records: Coverage records in plan order (checkpoint-restored
            and freshly evaluated units interleave seamlessly).
        quarantine: Error-ledger entries accumulated across the whole
            campaign, including entries restored from the checkpoint.
        executed_units: Units evaluated in this run.
        resumed_units: Units restored from the checkpoint.
        retry_stats: Site-evaluation retry counters for this run.
        batch_stats: Counters of the grid evaluator
            (:class:`~repro.perf.batch.BatchStats` as a dict).
        metrics: Snapshot of the run's
            :class:`~repro.obs.metrics.MetricsRegistry` (``None``
            unless a journal was requested -- the registry only exists
            when observability is on, keeping the default path
            zero-overhead).
    """

    records: list[CoverageRecord]
    quarantine: list[dict[str, Any]] = field(default_factory=list)
    executed_units: int = 0
    resumed_units: int = 0
    retry_stats: RetryStats = field(default_factory=RetryStats)
    batch_stats: dict[str, Any] | None = None
    metrics: dict[str, Any] | None = None

    @property
    def total_errors(self) -> int:
        """Total quarantined sites across all emitted records."""
        return sum(r.errors for r in self.records)


def record_to_payload(record: CoverageRecord) -> dict[str, Any]:
    """JSON payload of a record (the checkpoint/database row format)."""
    return asdict(record)


def record_from_payload(payload: dict[str, Any]) -> CoverageRecord:
    """Rebuild a record from its checkpoint payload."""
    return CoverageRecord(**payload)


def condition_fingerprint(cond: StressCondition) -> list[Any]:
    """JSON fingerprint of one stress condition (checkpoint matching)."""
    return [cond.name, cond.vdd, cond.period, cond.temperature]


def sweep_meta(specs: Sequence[SweepSpec]) -> list[dict[str, Any]]:
    """JSON fingerprint of a sweep plan (for checkpoint matching)."""
    return [
        {
            "kind": spec.kind.value,
            "resistances": list(spec.resistances),
            "conditions": [condition_fingerprint(c)
                           for c in spec.conditions],
        }
        for spec in specs
    ]


class CampaignRunner:
    """Run an :class:`~repro.ifa.flow.IfaCampaign` resiliently.

    Args:
        campaign: The campaign supplying site populations and the
            behaviour model.
        retry: Per-site retry policy (default: three fast attempts, no
            sleep -- evaluations are in-memory).
        checkpoint_path: Where to persist progress (saved after every
            completed unit); ``None`` disables checkpointing (pure
            in-memory run, still fault-tolerant).
        unit_deadline: Optional wall-clock budget per work unit
            (seconds); exceeding it raises
            :class:`~repro.runner.evaluate.UnitDeadlineExceeded` after
            the in-flight site.
        meta: Extra campaign-fingerprint entries (geometry, CLI args,
            ...) stored in -- and matched against -- the checkpoint.
        fault_hook: Chaos probe threaded into checkpoint I/O
            (typically ``FaultInjector.check``).
        journal: Observability sink (:mod:`repro.obs`).  ``None``
            (default) disables it entirely -- the hot path then makes
            zero event-bus invocations.  A path writes a JSONL run
            journal there (flushed atomically alongside every
            checkpoint save); an :class:`~repro.obs.bus.EventBus`-like
            instance is used as-is (tests pass counting wrappers).
            Every event is derived at the in-order effect point from
            the unit outcomes, so journals never contain wall-clock
            reads.
        sleep, clock: Injectable time sources for the retry machinery
            (tests pass fakes; production uses the real ones).
    """

    def __init__(self, campaign: "IfaCampaign",
                 retry: RetryPolicy | None = None,
                 checkpoint_path: str | Path | None = None,
                 unit_deadline: float | None = None,
                 meta: dict[str, Any] | None = None,
                 fault_hook: Callable[[str], None] | None = None,
                 journal: Any = None,
                 sleep: Callable[[float], None] = time.sleep,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if unit_deadline is not None and unit_deadline <= 0:
            raise ValueError("unit_deadline must be positive")
        self.campaign = campaign
        self.retry = retry
        self.checkpoint_path = (Path(checkpoint_path)
                                if checkpoint_path is not None else None)
        self.unit_deadline = unit_deadline
        self.extra_meta = dict(meta or {})
        self.fault_hook = fault_hook
        self.journal = journal
        self.sleep = sleep
        self.clock = clock
        self._batch_evaluator: Any = None

    def _journal_bus(self) -> Any:
        """Resolve the ``journal`` argument to an event bus (or None)."""
        if self.journal is None:
            return None
        if isinstance(self.journal, (str, Path)):
            from repro.obs.bus import EventBus

            return EventBus(Path(self.journal))
        return self.journal

    # ------------------------------------------------------------------
    # Plan / fingerprint
    # ------------------------------------------------------------------
    def plan(self, specs: Sequence[SweepSpec]) -> list[WorkUnit]:
        """Flatten the sweep specs into the ordered unit plan."""
        units: list[WorkUnit] = []
        for spec in specs:
            units.extend(plan_units(spec.kind, spec.resistances,
                                    spec.conditions,
                                    start_index=len(units)))
        return units

    def meta_for(self, specs: Sequence[SweepSpec]) -> dict[str, Any]:
        """The campaign fingerprint stored in (and matched against) the
        checkpoint.

        Execution knobs (retry, deadline) are deliberately
        absent: they change how a campaign runs, never what it
        computes.
        """
        meta: dict[str, Any] = {
            "n_sites": self.campaign.n_sites,
            "seed": self.campaign.seed,
            "sweeps": sweep_meta(specs),
        }
        meta.update(self.extra_meta)
        return meta

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _load_or_new_checkpoint(
            self, meta: dict[str, Any]) -> CampaignCheckpoint:
        """Load the checkpoint when present and matching, else start new."""
        if self.checkpoint_path is not None and self.checkpoint_path.exists():
            ckpt = CampaignCheckpoint.load(self.checkpoint_path)
            ckpt.ensure_matches(meta)
            return ckpt
        return CampaignCheckpoint(meta)

    def _outcomes(self, units: Sequence[WorkUnit],
                  pending: Sequence[WorkUnit]) -> Iterator[UnitOutcome]:
        """Evaluate pending units lazily through the grid evaluator.

        Args:
            units: The full plan (the grid evaluator derives its group
                grids from it, so its cross-check sample does not
                depend on checkpoint state).
            pending: The subset actually needing evaluation.
        """
        from repro.perf.batch import BatchEvaluator

        evaluator = BatchEvaluator(
            self.campaign, plan=units, retry=self.retry,
            unit_deadline=self.unit_deadline,
            sleep=self.sleep, clock=self.clock)
        self._batch_evaluator = evaluator
        return (evaluator.evaluate(unit) for unit in pending)

    def run(self, specs: Sequence[SweepSpec]) -> CampaignResult:
        """Execute (or resume) the campaign described by ``specs``.

        Units already in the checkpoint are re-emitted; the rest are
        evaluated through the grid evaluator.  Records, quarantine
        entries and checkpoint writes always happen in plan order, so
        fresh and resumed runs yield byte-identical records.

        Args:
            specs: The sweep plan (one spec per defect kind).

        Returns:
            The assembled :class:`CampaignResult`.
        """
        units = self.plan(specs)
        meta = self.meta_for(specs)
        resuming = (self.checkpoint_path is not None
                    and self.checkpoint_path.exists())
        ckpt = self._load_or_new_checkpoint(meta)
        result = CampaignResult(records=[],
                                quarantine=list(ckpt.quarantine))
        pending = [u for u in units if not ckpt.is_complete(u.unit_id)]
        bus = self._journal_bus()
        metrics: Any = None
        if bus is not None:
            from repro.obs.metrics import MetricsRegistry

            metrics = MetricsRegistry()
            # Journal metadata is the campaign fingerprint minus the
            # bulky sweep table (execution knobs are never part of it).
            bus.set_meta({k: v for k, v in meta.items()
                          if k != "sweeps"})
            bus.emit("run.start", plan_units=len(units))
            if resuming:
                status = ckpt.status()
                bus.emit("checkpoint.resume",
                         completed_units=status["completed_units"],
                         recovered_from_temp=status[
                             "recovered_from_temp"])
        outcomes = self._outcomes(units, pending)
        processed = 0
        for unit in units:
            unit_id = unit.unit_id
            processed += 1
            if ckpt.is_complete(unit_id):
                record = record_from_payload(ckpt.result_for(unit_id))
                result.records.append(record)
                result.resumed_units += 1
                if bus is not None:
                    bus.emit("unit.resumed", unit=unit_id)
                    self._emit_unit_done(bus, metrics, unit_id,
                                         "checkpoint", record)
                continue
            outcome = next(outcomes)
            result.records.append(outcome.record)
            result.quarantine.extend(outcome.quarantine)
            result.executed_units += 1
            result.retry_stats.merge(outcome.stats)
            ckpt.record_unit(unit_id, record_to_payload(outcome.record),
                             outcome.quarantine)
            if bus is not None:
                self._emit_executed(bus, metrics, unit, outcome)
            if self.checkpoint_path is not None:
                ckpt.save(self.checkpoint_path, fault_hook=self.fault_hook)
                if bus is not None:
                    bus.emit("checkpoint.save", completed_units=processed)
                    metrics.inc("checkpoint.saves")
                    bus.flush()
        if self._batch_evaluator is not None:
            result.batch_stats = self._batch_evaluator.stats.as_dict()
        if bus is not None:
            self._emit_run_done(bus, metrics, result)
            result.metrics = metrics.snapshot()
            bus.flush()
        return result

    # ------------------------------------------------------------------
    # Observability (all emission happens parent-side, in plan order)
    # ------------------------------------------------------------------
    @staticmethod
    def _emit_unit_done(bus: Any, metrics: Any, unit_id: str,
                        source: str, record: CoverageRecord) -> None:
        """Emit one unit's terminal event and count it.

        ``source`` names where the record came from (``checkpoint``
        or ``executed``); the payload carries the condition
        so reports can build per-condition tables without a join.
        """
        bus.emit("unit.done", unit=unit_id, source=source,
                 detected=record.detected, total=record.total,
                 errors=record.errors, condition=record.condition)
        metrics.inc(f"units.{source}")

    def _emit_executed(self, bus: Any, metrics: Any, unit: WorkUnit,
                       outcome: UnitOutcome) -> None:
        """Replay one executed unit's outcome into the journal.

        This is the in-order effect point: the outcome object is the
        evaluator's complete account of the unit (record, quarantine
        ledger, retry snapshot), so deriving events here -- instead of
        inside evaluation -- keeps the hot path free of any bus
        traffic.
        """
        unit_id = unit.unit_id
        bus.emit("unit.start", unit=unit_id, kind=unit.kind.value,
                 resistance=unit.resistance,
                 condition=unit.condition.name)
        for message in outcome.stats.error_log():
            bus.emit("unit.retry", unit=unit_id, error=message)
        for entry in outcome.quarantine:
            bus.emit("unit.quarantine", unit=unit_id,
                     site_index=entry["site_index"],
                     attempts=entry["attempts"], error=entry["error"])
        # Merge the per-unit retry snapshot here, at the same point
        # result.retry_stats absorbs it.
        metrics.inc("retry.calls", outcome.stats.calls)
        metrics.inc("retry.retries", outcome.stats.retries)
        metrics.inc("retry.exhausted", outcome.stats.exhausted)
        metrics.inc("quarantine.sites", len(outcome.quarantine))
        self._emit_unit_done(bus, metrics, unit_id, "executed",
                             outcome.record)

    def _emit_run_done(self, bus: Any, metrics: Any,
                       result: CampaignResult) -> None:
        """Emit the grid evaluator's demotions and the terminal event.

        A demotion only exists when a model's batch hook lied or
        failed, so an honest run journals none.
        """
        if result.batch_stats is not None:
            for d in result.batch_stats["demotions"]:
                bus.emit("batch.demote", **d)
                metrics.inc(f"batch.demote.{d['reason']}")
        bus.emit("run.done",
                 executed_units=result.executed_units,
                 resumed_units=result.resumed_units,
                 quarantined_sites=len(result.quarantine))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def status(self, specs: Sequence[SweepSpec]) -> dict[str, Any]:
        """Checkpoint progress against this runner's plan."""
        units = self.plan(specs)
        if self.checkpoint_path is None or not self.checkpoint_path.exists():
            return {"completed_units": 0, "total_units": len(units),
                    "remaining_units": len(units), "quarantined_sites": 0,
                    "recovered_from_temp": False, "meta": {}}
        ckpt = CampaignCheckpoint.load(self.checkpoint_path)
        return ckpt.status(total_units=len(units))
