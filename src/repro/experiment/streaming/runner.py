"""Parent-side orchestration of the streaming experiment.

:class:`StreamingRunner` mirrors
:class:`~repro.runner.campaign.CampaignRunner`: shards dispatch through
the serial evaluator or the supervised pool, completed
shards land in a :class:`~repro.runner.checkpoint.CampaignCheckpoint`
(payload = the shard's accumulator dict), and all observability happens
here, in shard-plan order, at the in-order effect point -- so journals
are byte-identical across worker counts and the reduce is
deterministic no matter which worker finished first.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.experiment.streaming.accumulator import ExperimentAccumulator
from repro.experiment.streaming.engine import StreamingExperiment
from repro.experiment.venn import VennCounts
from repro.experiment.classify import STRESS_NAMES
from repro.runner.checkpoint import CampaignCheckpoint
from repro.runner.evaluate import UnitOutcome
from repro.runner.retry import RetryPolicy


@dataclass
class StreamingResult:
    """Outcome of one streaming experiment run.

    Attributes:
        accumulator: The merged lot-level sufficient statistics.
        executed_shards: Shards evaluated this run.
        resumed_shards: Shards replayed from the checkpoint.
        quarantine: Whole-shard poison ledger entries.
        supervisor_stats: Pool-supervision counters (pool runs only).
        metrics: Metrics snapshot (journal runs only).
    """

    accumulator: ExperimentAccumulator
    executed_shards: int = 0
    resumed_shards: int = 0
    quarantine: list[dict[str, Any]] = field(default_factory=list)
    supervisor_stats: dict[str, Any] | None = None
    metrics: dict[str, Any] | None = None

    @property
    def venn(self) -> VennCounts:
        """The lot-level Venn regions."""
        return self.accumulator.venn

    def render(self) -> str:
        """Human-readable run summary."""
        acc = self.accumulator
        lines = [
            f"devices: {acc.devices}  defective: {acc.defective}  "
            f"standard fails: {acc.standard_fails}  "
            f"errors: {acc.errors}",
            self.venn.render(),
        ]
        for name in STRESS_NAMES:
            lines.append(f"  escape DPM ({name}): "
                         f"{acc.escape_dpm(name):.1f}")
        for condition, counts in sorted(acc.hint_counts.items()):
            lines.append(f"  hints at {condition}:")
            for value in sorted(counts):
                lines.append(f"    {value:>20}: {counts[value]}")
        return "\n".join(lines)


class StreamingRunner:
    """Execute (or resume) a sharded streaming experiment.

    Args:
        engine: The :class:`StreamingExperiment` to run.
        retry: Per-unit retry policy handed to the executors.
        checkpoint_path: Crash-safe progress file (optional).
        checkpoint_every: Completed shards per checkpoint write.
        unit_deadline: Optional per-shard wall-clock budget (seconds).
        workers: Process count (1 = serial; N > 1 runs the
            self-healing supervised pool, which chunks the shards
            automatically).
        max_pool_rebuilds: Supervised-pool rebuild budget.
        journal: Run-journal path or event bus (optional).
        fault_hook: Test-only hook threaded into checkpoint saves.
        sleep / clock: Injectable timers for the executors.
    """

    def __init__(self, engine: StreamingExperiment,
                 retry: RetryPolicy | None = None,
                 checkpoint_path: str | Path | None = None,
                 checkpoint_every: int = 8,
                 unit_deadline: float | None = None,
                 workers: int = 1,
                 max_pool_rebuilds: int = 8,
                 journal: Any = None,
                 fault_hook: Callable[[str], None] | None = None,
                 sleep: Callable[[float], None] = time.sleep,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.engine = engine
        self.retry = retry
        self.checkpoint_path = (Path(checkpoint_path)
                                if checkpoint_path is not None else None)
        self.checkpoint_every = checkpoint_every
        self.unit_deadline = unit_deadline
        self.workers = workers
        self.max_pool_rebuilds = max_pool_rebuilds
        self.journal = journal
        self.fault_hook = fault_hook
        self.sleep = sleep
        self.clock = clock
        self._supervisor: Any = None

    # ------------------------------------------------------------------
    def _journal_bus(self) -> Any:
        """Resolve the ``journal`` argument to an event bus (or None)."""
        if self.journal is None:
            return None
        if isinstance(self.journal, (str, Path)):
            from repro.obs.bus import EventBus

            return EventBus(Path(self.journal))
        return self.journal

    def _outcomes(self, pending: list[Any], bus: Any = None,
                  metrics: Any = None) -> Iterator[UnitOutcome]:
        """Evaluate pending shards lazily: serial or across the pool."""
        if self.workers == 1:
            evaluator = self.engine.unit_evaluator(
                retry=self.retry, unit_deadline=self.unit_deadline,
                sleep=self.sleep, clock=self.clock)
            return (evaluator.evaluate(shard) for shard in pending)
        from repro.perf.supervisor import SupervisedUnitExecutor

        supervisor = SupervisedUnitExecutor(
            self.engine, retry=self.retry,
            unit_deadline=self.unit_deadline,
            workers=self.workers,
            max_pool_rebuilds=self.max_pool_rebuilds,
            bus=bus, metrics=metrics,
            sleep=self.sleep, clock=self.clock)
        self._supervisor = supervisor
        return supervisor.run(pending)

    # ------------------------------------------------------------------
    def run(self) -> StreamingResult:
        """Run (or resume) the experiment and reduce in shard order.

        Completed shards are replayed from the checkpoint; the rest
        are evaluated serially or across the pool.  Merging, journal
        events and checkpoint writes always happen in shard-plan
        order, so every combination of {serial, parallel} x {fresh,
        resumed} yields an identical accumulator payload.
        """
        units = self.engine.plan.shards()
        meta = self.engine.meta()
        resuming = (self.checkpoint_path is not None
                    and self.checkpoint_path.exists())
        if resuming:
            ckpt = CampaignCheckpoint.load(self.checkpoint_path)
            ckpt.ensure_matches(meta)
        else:
            ckpt = CampaignCheckpoint(meta)
        bus = self._journal_bus()
        metrics: Any = None
        if bus is not None:
            from repro.obs.metrics import MetricsRegistry

            metrics = MetricsRegistry()
            bus.set_meta(meta)
            bus.emit("run.start", plan_units=len(units))
            if resuming:
                status = ckpt.status()
                bus.emit("checkpoint.resume",
                         completed_units=status["completed_units"],
                         recovered_from_temp=status[
                             "recovered_from_temp"])
        pending = [u for u in units if not ckpt.is_complete(u.unit_id)]
        outcomes = self._outcomes(pending, bus, metrics)
        total = ExperimentAccumulator()
        result = StreamingResult(accumulator=total,
                                 quarantine=list(ckpt.quarantine))
        dirty = 0
        processed = 0
        for unit in units:
            unit_id = unit.unit_id
            if ckpt.is_complete(unit_id):
                payload = ckpt.result_for(unit_id)
                result.resumed_shards += 1
                source = "checkpoint"
            else:
                outcome = next(outcomes)
                payload = outcome.record
                result.quarantine.extend(outcome.quarantine)
                result.executed_shards += 1
                source = "executed"
                ckpt.record_unit(unit_id, payload, outcome.quarantine)
                if bus is not None:
                    for entry in outcome.quarantine:
                        bus.emit("unit.quarantine", unit=unit_id,
                                 site_index=entry["site_index"],
                                 attempts=entry["attempts"],
                                 error=entry["error"])
                    metrics.inc("quarantine.sites",
                                len(outcome.quarantine))
            shard_acc = ExperimentAccumulator.from_payload(payload)
            total.merge(shard_acc)
            processed += 1
            if bus is not None:
                bus.emit("experiment.shard", shard=unit.index,
                         devices=shard_acc.devices,
                         defective=shard_acc.defective,
                         interesting=shard_acc.interesting,
                         source=source)
                metrics.inc(f"shards.{source}")
            if source == "checkpoint":
                continue
            dirty += 1
            if self.checkpoint_path is not None and (
                    dirty >= self.checkpoint_every):
                ckpt.save(self.checkpoint_path, fault_hook=self.fault_hook)
                dirty = 0
                if bus is not None:
                    bus.emit("checkpoint.save", completed_units=processed)
                    metrics.inc("checkpoint.saves")
                    bus.flush()
        if self.checkpoint_path is not None and dirty:
            ckpt.save(self.checkpoint_path, fault_hook=self.fault_hook)
            if bus is not None:
                bus.emit("checkpoint.save", completed_units=processed)
                metrics.inc("checkpoint.saves")
        if self._supervisor is not None:
            result.supervisor_stats = self._supervisor.stats.as_dict()
        if bus is not None:
            bus.emit("experiment.merge", shards=len(units),
                     devices=total.devices, defective=total.defective,
                     interesting=total.interesting,
                     standard_fails=total.standard_fails)
            bus.emit("run.done",
                     executed_units=result.executed_shards,
                     resumed_units=result.resumed_shards,
                     quarantined_sites=len(result.quarantine))
            result.metrics = metrics.snapshot()
            bus.flush()
        return result
