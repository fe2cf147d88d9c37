"""The resilient campaign runner: interruptible, resumable, fault-tolerant.

Ties the subsystem together.  A campaign -- the paper's long
one-defect-at-a-time simulation sweep that builds the "database with
pre-calculated simulation results" (Section 3) -- becomes:

1. **decompose** (:mod:`repro.runner.units`): the R x condition sweep
   flattens into an ordered list of independent work units;
2. **evaluate** (:mod:`repro.runner.evaluate`): each site's behavioural
   evaluation gets a bounded number of attempts; sites that keep failing are
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

The chaos harness (:mod:`repro.runner.chaos`) is the campaign's own
``injector``: the per-site loop probes it before every evaluation
attempt and the checkpoint I/O before every write, so every one of
those recovery paths is exercised by tests rather than discovered in
production.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable, Sequence
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.core.records import CoverageRecord
from repro.defects.models import DefectKind
from repro.runner.checkpoint import CampaignCheckpoint, CheckpointedRun
from repro.runner.outcome import UnitOutcome, check_unit_deadline
from repro.runner.retry import RetryStats, check_max_attempts
from repro.runner.units import WorkUnit, plan_units
from repro.stress import StressCondition

if TYPE_CHECKING:
    from repro.ifa.flow import IfaCampaign

__all__ = [
    "CampaignResult",
    "CampaignRunner",
    "SweepSpec",
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
        campaign: The campaign supplying site populations, the
            behaviour model and the optional fault ``injector`` (also
            threaded into checkpoint writes).
        max_attempts: Tries per site evaluation before the site is
            quarantined (retries never sleep: evaluations are
            in-memory).
        checkpoint_path: Where to persist progress (saved after every
            completed unit); ``None`` disables checkpointing (pure
            in-memory run, still fault-tolerant).
        unit_deadline: Optional wall-clock budget per work unit
            (seconds); exceeding it raises
            :class:`~repro.runner.outcome.UnitDeadlineExceeded` after
            the in-flight site.
        meta: Extra campaign-fingerprint entries (geometry, CLI args,
            ...) stored in -- and matched against -- the checkpoint.
        journal: Run journal (:mod:`repro.obs`): ``None`` (default;
            zero event-bus calls), a JSONL path or an
            :class:`~repro.obs.bus.EventBus`-like instance.  Events are
            derived at the in-order effect point from the unit
            outcomes, so journals never contain wall-clock reads.
        clock: Injectable monotonic clock for the unit deadline (tests
            pass a fake; production uses the real one).
    """

    def __init__(self, campaign: "IfaCampaign",
                 max_attempts: int = 3,
                 checkpoint_path: str | Path | None = None,
                 unit_deadline: float | None = None,
                 meta: dict[str, Any] | None = None,
                 journal: Any = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        check_max_attempts(max_attempts)
        check_unit_deadline(unit_deadline)
        self.campaign = campaign
        self.max_attempts = max_attempts
        self.checkpoint_path = (Path(checkpoint_path)
                                if checkpoint_path is not None else None)
        self.unit_deadline = unit_deadline
        self.extra_meta = dict(meta or {})
        self.journal = journal
        self.clock = clock

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

        Execution knobs (attempts, deadline, injector) are deliberately
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
        # Journal metadata is the campaign fingerprint minus the bulky
        # sweep table (execution knobs are never part of it).
        injector = self.campaign.injector
        run = CheckpointedRun(
            meta, self.checkpoint_path, self.journal,
            injector.check if injector is not None else None,
            journal_meta={k: v for k, v in meta.items() if k != "sweeps"})
        bus, metrics = run.bus, run.metrics
        result = CampaignResult(records=[])

        def replay(unit: WorkUnit, payload: dict[str, Any]) -> None:
            record = record_from_payload(payload)
            result.records.append(record)
            if bus is not None:
                bus.emit("unit.resumed", unit=unit.unit_id)
                self._emit_unit_done(bus, metrics, unit.unit_id,
                                     "checkpoint", record)

        def execute(unit: WorkUnit,
                    outcome: UnitOutcome) -> dict[str, Any]:
            # The in-order effect point: deriving events from the
            # outcome here keeps evaluation free of bus traffic.
            result.records.append(outcome.record)
            result.retry_stats.merge(outcome.stats)
            if bus is None:
                return record_to_payload(outcome.record)
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
            metrics.inc("retry.calls", outcome.stats.calls)
            metrics.inc("retry.retries", outcome.stats.retries)
            metrics.inc("retry.exhausted", outcome.stats.exhausted)
            metrics.inc("quarantine.sites", len(outcome.quarantine))
            self._emit_unit_done(bus, metrics, unit_id, "executed",
                                 outcome.record)
            return record_to_payload(outcome.record)

        from repro.perf.batch import BatchEvaluator

        # The grid evaluator derives its group grids from the full plan,
        # so its cross-check sample does not depend on checkpoint state.
        evaluator = BatchEvaluator(
            self.campaign, plan=units, max_attempts=self.max_attempts,
            unit_deadline=self.unit_deadline, clock=self.clock)
        run.run(units,
                lambda pending: (evaluator.evaluate(u) for u in pending),
                replay, execute)
        result.quarantine = list(run.checkpoint.quarantine)
        result.executed_units = run.executed_units
        result.resumed_units = run.resumed_units
        result.batch_stats = evaluator.stats.as_dict()
        if bus is not None:
            # A demotion only exists when a model's kernel lied, so an
            # honest run journals none.
            for d in result.batch_stats["demotions"]:
                bus.emit("batch.demote", **d)
                metrics.inc(f"batch.demote.{d['reason']}")
        result.metrics = run.finish()
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
