"""Parent-side orchestration of the streaming experiment.

:class:`StreamingRunner` drives the lot through the same checkpointed
run loop as the campaign (:class:`~repro.runner.checkpoint.
CheckpointedRun`): shards dispatch through the serial evaluator or the
supervised pool, every executed shard lands in the checkpoint (payload
= the shard's accumulator dict) and all observability happens here, in
shard-plan order, at the in-order effect point -- so journals are
byte-identical across worker counts and the reduce is deterministic no
matter which worker finished first.
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
from repro.runner.checkpoint import CheckpointedRun
from repro.runner.evaluate import UnitOutcome, check_unit_deadline


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
        checkpoint_path: Crash-safe progress file (optional; saved
            after every executed shard).
        unit_deadline: Optional per-shard wall-clock budget (seconds).
        workers: Process count (1 = serial; N > 1 runs the
            self-healing supervised pool, which chunks the shards
            automatically).
        max_pool_rebuilds: Supervised-pool rebuild budget.
        journal: Run-journal path or event bus (optional).
        clock: Injectable monotonic clock for the executors.

    The engine's ``injector`` (if any) is threaded into checkpoint
    saves; its ``worker.hang`` faults need ``unit_deadline``, because
    the shard deadline is what detects a hang.

    Raises:
        ValueError: a bad ``unit_deadline`` or ``workers``, or a
            ``worker.hang`` fault without ``unit_deadline``.
    """

    def __init__(self, engine: StreamingExperiment,
                 checkpoint_path: str | Path | None = None,
                 unit_deadline: float | None = None,
                 workers: int = 1,
                 max_pool_rebuilds: int = 8,
                 journal: Any = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        check_unit_deadline(unit_deadline)
        if workers < 1:
            raise ValueError("workers must be >= 1")
        injector = engine.injector
        if injector is not None and unit_deadline is None:
            from repro.runner.chaos import WORKER_HANG_SITE

            if injector.worker_faults.get(WORKER_HANG_SITE):
                raise ValueError(
                    "a worker.hang fault needs unit_deadline: the shard "
                    "deadline is what detects a hang")
        self.engine = engine
        self.checkpoint_path = (Path(checkpoint_path)
                                if checkpoint_path is not None else None)
        self.unit_deadline = unit_deadline
        self.workers = workers
        self.max_pool_rebuilds = max_pool_rebuilds
        self.journal = journal
        self.clock = clock
        self._supervisor: Any = None

    # ------------------------------------------------------------------
    def _outcomes(self, pending: list[Any], bus: Any = None,
                  metrics: Any = None) -> Iterator[UnitOutcome]:
        """Evaluate pending shards lazily: serial or across the pool."""
        if self.workers == 1:
            evaluator = self.engine.unit_evaluator(
                unit_deadline=self.unit_deadline, clock=self.clock)
            return (evaluator.evaluate(shard) for shard in pending)
        from repro.perf.supervisor import SupervisedUnitExecutor

        supervisor = SupervisedUnitExecutor(
            self.engine, unit_deadline=self.unit_deadline,
            workers=self.workers,
            max_pool_rebuilds=self.max_pool_rebuilds,
            bus=bus, metrics=metrics, clock=self.clock)
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
        injector = self.engine.injector
        run = CheckpointedRun(self.engine.meta(), self.checkpoint_path,
                              self.journal,
                              injector.check if injector is not None
                              else None)
        bus, metrics = run.bus, run.metrics
        total = ExperimentAccumulator()

        def merge(unit: Any, payload: dict[str, Any], source: str) -> None:
            shard_acc = ExperimentAccumulator.from_payload(payload)
            total.merge(shard_acc)
            if bus is not None:
                bus.emit("experiment.shard", shard=unit.index,
                         devices=shard_acc.devices,
                         defective=shard_acc.defective,
                         interesting=shard_acc.interesting,
                         source=source)
                metrics.inc(f"shards.{source}")

        def execute(unit: Any, outcome: UnitOutcome) -> dict[str, Any]:
            if bus is not None:
                for entry in outcome.quarantine:
                    bus.emit("unit.quarantine", unit=unit.unit_id,
                             site_index=entry["site_index"],
                             attempts=entry["attempts"],
                             error=entry["error"])
                metrics.inc("quarantine.sites", len(outcome.quarantine))
            merge(unit, outcome.record, "executed")
            return outcome.record

        run.run(units,
                lambda pending: self._outcomes(pending, bus, metrics),
                lambda unit, payload: merge(unit, payload, "checkpoint"),
                execute)
        result = StreamingResult(accumulator=total,
                                 executed_shards=run.executed_units,
                                 resumed_shards=run.resumed_units,
                                 quarantine=list(run.checkpoint.quarantine))
        if self._supervisor is not None:
            result.supervisor_stats = self._supervisor.stats.as_dict()
        if bus is not None:
            bus.emit("experiment.merge", shards=len(units),
                     devices=total.devices, defective=total.defective,
                     interesting=total.interesting,
                     standard_fails=total.standard_fails)
        result.metrics = run.finish()
        return result
