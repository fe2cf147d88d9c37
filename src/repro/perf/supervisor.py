"""Supervised pool execution: survive worker death, hangs, poison units.

The process pool of the streaming lot
(:class:`~repro.experiment.streaming.StreamingRunner` with
``workers > 1``).  A bare pool is the run's single point of failure: one worker dying (OOM, SIGKILL, tester flakiness)
surfaces as ``BrokenProcessPool`` and would abort the whole run, and a
*hung* worker blocks ``future.result()`` forever because the per-unit
deadline is only enforced on the worker's own clock.  This module runs
the chunked execution of :mod:`repro.perf.executor` under a supervisor
with four recovery layers, moving through a small state machine
(``docs/robustness.md``):

``healthy -> rebuild -> bisect -> poison/degrade-serial``

1. **rebuild** -- a lost worker (``BrokenProcessPool``, raised while
   waiting on a chunk *or* while still submitting) or an overrun
   parent-side *chunk deadline* tears the pool down; a fresh pool is
   built (bounded by ``max_pool_rebuilds``) and only the
   not-yet-consumed units are re-dispatched.  Chunks that already
   finished before the breakage are salvaged, never re-evaluated.
2. **bisect** -- a chunk that keeps dying is split in half on every
   further failure, isolating the offending unit in O(log n) rebuilds.
3. **poison** -- a single unit that still kills its worker is retried
   serially in the parent; if it dies even there, it is quarantined
   through the evaluator's ``poison_outcome`` (its devices counted as
   ``errors``, one ``site_index == -1`` ledger entry) instead of
   killing the run.
4. **degrade-serial** -- when the rebuild budget is exhausted, the
   remaining units are evaluated serially in the parent (journalled as
   ``pool.degrade_serial``) rather than aborting.

Determinism contract: outcomes are still yielded strictly in plan
order, and all supervision events (``pool.*``) are emitted parent-side
at the in-order effect point.  An undisturbed run emits no ``pool.*``
events and produces byte-identical records and journals to a serial
run; a disturbed run produces byte-identical *records* (what was
computed never depends on which process computed it).

Exceptions raised *by unit evaluation itself* -- deadline overruns,
crashes while classifying a shard, :exc:`~repro.perf.executor.
WorkerInitError` -- are not supervised: they propagate exactly as a
serial run's do.
"""

from __future__ import annotations

import pickle
import time
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any

from repro.perf.executor import (
    WorkerInitError,
    _evaluate_chunk,
    _init_worker,
    _pool_context,
    chunk_units,
    probe_worker_faults,
)
from repro.runner.evaluate import (
    UnitDeadlineExceeded,
    UnitOutcome,
)
from repro.runner.units import WorkUnit

#: Failures of one chunk before it is bisected into halves.
BISECT_AFTER = 2

#: Failures of a single-unit chunk before it is retried in the parent
#: (and quarantined as poison if it dies even there).
POISON_AFTER = 3


@dataclass
class SupervisorStats:
    """Counters of every supervision action taken during one run.

    Attributes:
        worker_losses: Pool-breaking failures observed (all causes).
        deadline_losses: The subset detected by the parent-side chunk
            deadline (hung or silently stopped workers).
        rebuilds: Pools rebuilt after a loss.
        redispatched_units: Units of failed chunks sent out again.
        poison_units: Units quarantined after dying in the parent too.
        degraded_units: Units evaluated serially in the parent after
            the rebuild budget ran out.
    """

    worker_losses: int = 0
    deadline_losses: int = 0
    rebuilds: int = 0
    redispatched_units: int = 0
    poison_units: int = 0
    degraded_units: int = 0

    def as_dict(self) -> dict[str, int]:
        """The counters as a plain dict (for results and reports)."""
        return {
            "worker_losses": self.worker_losses,
            "deadline_losses": self.deadline_losses,
            "rebuilds": self.rebuilds,
            "redispatched_units": self.redispatched_units,
            "poison_units": self.poison_units,
            "degraded_units": self.degraded_units,
        }

    @property
    def any_activity(self) -> bool:
        """True when any supervision action fired (clean runs: False)."""
        return any(self.as_dict().values())


@dataclass
class _ChunkState:
    """One dispatchable chunk: its units, attempt count and salvage."""

    units: list[WorkUnit]
    attempts: int = 0
    #: Outcomes salvaged from a future that completed before a pool
    #: breakage elsewhere; served without re-evaluation.
    result: list[UnitOutcome] | None = None
    #: Marked when the chunk must be retried serially in the parent
    #: (single unit, repeatedly fatal in workers).
    serial: bool = False


class SupervisedUnitExecutor:
    """Pool executor that heals worker death instead of propagating it.

    Yields the same in-plan-order outcome stream a serial pass of the
    campaign's own evaluator would, under the supervision state
    machine described in the module docstring.  The streaming runner
    uses it for every ``workers > 1`` run.

    Args:
        campaign: The (picklable) campaign whose ``unit_evaluator``
            factory builds the evaluator (the streaming experiment).
        unit_deadline: Per-unit wall-clock budget.  Enforced on the
            worker's clock as before *and* scaled into a parent-side
            per-chunk deadline (``unit_deadline x chunk length x
            chunk_deadline_factor``) so hung workers are detected.
            ``None`` disables both.
        workers: Worker-process count (>= 1).
        chunksize: Units per pool task; automatic when omitted.
        max_pool_rebuilds: Pool rebuilds allowed before degrading to
            serial in-parent evaluation of the remaining units.
        chunk_deadline_factor: Slack multiplier of the parent-side
            chunk deadline (covers dispatch latency and worker
            oversubscription; > 0).
        bus: Optional :class:`~repro.obs.bus.EventBus` for ``pool.*``
            supervision events (``None`` = silent).
        metrics: Optional :class:`~repro.obs.metrics.MetricsRegistry`
            fed alongside the bus.
        clock: Injectable monotonic clock for the *parent-side*
            fallback evaluator (workers use the real one).
    """

    def __init__(self, campaign: Any, unit_deadline: float | None = None,
                 workers: int = 2,
                 chunksize: int | None = None,
                 max_pool_rebuilds: int = 8,
                 chunk_deadline_factor: float = 4.0,
                 bus: Any = None, metrics: Any = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_pool_rebuilds < 0:
            raise ValueError("max_pool_rebuilds must be >= 0")
        if chunk_deadline_factor <= 0:
            raise ValueError("chunk_deadline_factor must be positive")
        self.campaign = campaign
        self.unit_deadline = unit_deadline
        self.workers = workers
        self.chunksize = chunksize
        self.max_pool_rebuilds = max_pool_rebuilds
        self.chunk_deadline_factor = chunk_deadline_factor
        self.bus = bus
        self.metrics = metrics
        self.clock = clock
        self.stats = SupervisorStats()
        self._epoch = 0
        self._parent_evaluator: Any = None
        #: Per-unit pool-dispatch counts.  These -- not the per-chunk
        #: failure counts -- feed the chaos probes, because the pool
        #: can only blame the chunk it was *waiting on* for a breakage
        #: elsewhere; dispatch counts stay exact per unit regardless.
        self._dispatches: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Observability (parent-side; silent when no bus is attached)
    # ------------------------------------------------------------------
    def _emit(self, name: str, **data: Any) -> None:
        if self.bus is not None:
            self.bus.emit(name, **data)

    def _count(self, name: str, value: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.inc(name, value)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, units: Sequence[WorkUnit]) -> Iterator[UnitOutcome]:
        """Yield one outcome per unit, in plan order, healing the pool.

        Args:
            units: Pending work units in plan order.

        Yields:
            :class:`~repro.runner.evaluate.UnitOutcome` per unit.

        Raises:
            WorkerInitError: the worker initializer failed (fatal:
                every worker fails identically, so no rebuild).
            BaseException: whatever unit evaluation itself raised
                (deadline overruns, crashes while classifying);
                supervision covers the *pool*, not the evaluation
                semantics.
        """
        if not units:
            return
        payload = pickle.dumps((self.campaign, self.unit_deadline))
        pending = [_ChunkState(list(chunk)) for chunk in
                   chunk_units(units, self.workers, self.chunksize)]
        while pending:
            # Serve leading chunks that need no pool: salvaged results
            # and serial (suspected-poison) retries.
            while pending and (pending[0].result is not None
                               or pending[0].serial):
                chunk = pending.pop(0)
                if chunk.result is not None:
                    yield from chunk.result
                else:
                    for unit in chunk.units:
                        yield self._parent_unit(unit)
            if not pending:
                return
            if self._epoch > 0:
                if self.stats.rebuilds >= self.max_pool_rebuilds:
                    yield from self._drain_serial(pending)
                    return
                self.stats.rebuilds += 1
                self._count("pool.rebuilds")
                self._emit("pool.rebuild", rebuilds=self.stats.rebuilds,
                           budget=self.max_pool_rebuilds)
            self._epoch += 1
            yield from self._pool_epoch(payload, pending)

    def _pool_epoch(self, payload: bytes,
                    pending: list[_ChunkState]) -> Iterator[UnitOutcome]:
        """One pool lifetime: dispatch, consume in order, stop on loss.

        Consumes (pops and yields) chunks from the front of
        ``pending``.  Returns normally either when every chunk is
        consumed or after a pool-breaking failure has been handled
        (chunk states updated for the next epoch); re-raises
        evaluation-level exceptions.
        """
        pool = ProcessPoolExecutor(max_workers=self.workers,
                                   mp_context=_pool_context(),
                                   initializer=_init_worker,
                                   initargs=(payload,))
        try:
            futures: dict[int, Any] = {}
            try:
                for chunk in pending:
                    if chunk.result is not None:
                        continue
                    attempts = [self._dispatches.get(u.unit_id, 0)
                                for u in chunk.units]
                    futures[id(chunk)] = pool.submit(
                        _evaluate_chunk, chunk.units, attempts)
                    for unit in chunk.units:
                        self._dispatches[unit.unit_id] = (
                            self._dispatches.get(unit.unit_id, 0) + 1)
            except BrokenProcessPool:
                # A worker died while the parent was still submitting:
                # the same loss as one seen through future.result(),
                # charged to the head chunk the parent waits on first.
                self._handle_loss(pending[0], pending, futures,
                                  cause="worker-lost")
                return
            while pending:
                chunk = pending[0]
                if chunk.result is not None:
                    pending.pop(0)
                    yield from chunk.result
                    continue
                future = futures[id(chunk)]
                try:
                    outcomes = future.result(
                        timeout=self._chunk_timeout(chunk))
                except WorkerInitError:
                    raise
                except FutureTimeoutError:
                    self._handle_loss(chunk, pending, futures,
                                      cause="chunk-deadline")
                    return
                except BrokenProcessPool:
                    self._handle_loss(chunk, pending, futures,
                                      cause="worker-lost")
                    return
                pending.pop(0)
                yield from outcomes
        finally:
            self._teardown(pool)

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------
    def _chunk_timeout(self, chunk: _ChunkState) -> float | None:
        """Parent-side deadline for one chunk (None = wait forever)."""
        if self.unit_deadline is None:
            return None
        return (self.unit_deadline * len(chunk.units)
                * self.chunk_deadline_factor)

    def _handle_loss(self, chunk: _ChunkState,
                     pending: list[_ChunkState],
                     futures: dict[int, Any], cause: str) -> None:
        """Account a pool-breaking failure of the head chunk.

        Emits ``pool.worker_lost``/``pool.redispatch``, salvages later
        chunks whose futures already completed, and escalates the
        failed chunk: redispatch -> bisect -> serial-in-parent.
        """
        chunk.attempts += 1
        self.stats.worker_losses += 1
        if cause == "chunk-deadline":
            self.stats.deadline_losses += 1
        self.stats.redispatched_units += len(chunk.units)
        self._count("pool.worker_losses")
        self._emit("pool.worker_lost", unit=chunk.units[0].unit_id,
                   units=len(chunk.units), cause=cause)
        self._emit("pool.redispatch", unit=chunk.units[0].unit_id,
                   units=len(chunk.units), attempt=chunk.attempts)
        # Salvage chunks that finished before the breakage: their
        # outcomes are already computed and must not be re-evaluated
        # (re-dispatching them would be wasted work, not a correctness
        # problem -- outcomes are pure functions of the unit).
        for other in pending[1:]:
            if other.result is not None:
                continue
            future = futures.get(id(other))
            if (future is not None and future.done()
                    and not future.cancelled()
                    and future.exception() is None):
                other.result = future.result()
        if len(chunk.units) == 1:
            if chunk.attempts >= POISON_AFTER:
                chunk.serial = True
        elif chunk.attempts >= BISECT_AFTER:
            mid = len(chunk.units) // 2
            pending[0:1] = [
                _ChunkState(chunk.units[:mid], attempts=chunk.attempts),
                _ChunkState(chunk.units[mid:], attempts=chunk.attempts),
            ]

    def _teardown(self, pool: ProcessPoolExecutor) -> None:
        """Shut a pool down without waiting on possibly-hung workers."""
        processes = list(getattr(pool, "_processes", {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        for proc in processes:
            if proc.is_alive():
                proc.terminate()
        for proc in processes:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=5.0)

    # ------------------------------------------------------------------
    # Parent-side evaluation (poison retry and degraded-serial modes)
    # ------------------------------------------------------------------
    def _evaluator(self) -> Any:
        """The lazily-built in-parent fallback evaluator.

        Built through the campaign's ``unit_evaluator`` factory, so
        the parent runs the same evaluator as the workers.
        """
        if self._parent_evaluator is None:
            self._parent_evaluator = self.campaign.unit_evaluator(
                unit_deadline=self.unit_deadline, clock=self.clock)
        return self._parent_evaluator

    def _parent_unit(self, unit: WorkUnit) -> UnitOutcome:
        """Evaluate one unit in the parent, quarantining a fatal one.

        The last line of defence: a unit that reaches here has either
        repeatedly killed its workers (poison retry) or the rebuild
        budget is gone (degraded mode).  A crash here -- anything
        short of the interpreter-level exits and the runner's own
        deadline signal -- is recorded as a poison unit instead of
        propagating.
        """
        evaluator = self._evaluator()
        dispatches = self._dispatches.get(unit.unit_id, 0)
        try:
            probe_worker_faults(self.campaign, unit, dispatches,
                                in_worker=False)
            return evaluator.evaluate(unit)
        except (KeyboardInterrupt, SystemExit, UnitDeadlineExceeded):
            raise
        except BaseException as exc:  # noqa: BLE001 -- quarantined
            error = f"{type(exc).__name__}: {exc}"
            self.stats.poison_units += 1
            self._count("pool.poison_units")
            self._emit("pool.poison_unit", unit=unit.unit_id,
                       attempts=dispatches + 1, error=error)
            return evaluator.poison_outcome(unit, dispatches + 1, error)

    def _drain_serial(self,
                      pending: list[_ChunkState]) -> Iterator[UnitOutcome]:
        """Degraded mode: evaluate everything left in the parent."""
        remaining = sum(len(chunk.units) for chunk in pending
                        if chunk.result is None)
        self.stats.degraded_units += remaining
        self._count("pool.degraded_units", remaining)
        self._emit("pool.degrade_serial", units=remaining,
                   rebuilds=self.stats.rebuilds)
        while pending:
            chunk = pending.pop(0)
            if chunk.result is not None:
                yield from chunk.result
                continue
            for unit in chunk.units:
                yield self._parent_unit(unit)
