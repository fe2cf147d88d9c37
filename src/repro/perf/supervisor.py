"""Supervised pool execution: survive worker death, hangs, poison shards.

The process pool of the streaming lot
(:class:`~repro.experiment.streaming.runner.StreamingRunner` with
``workers > 1``).  A bare pool is the run's single point of failure:
one worker dying (OOM, SIGKILL, tester flakiness) surfaces as
``BrokenProcessPool`` and would abort the whole run, and a *hung*
worker blocks ``future.result()`` forever because the per-shard
deadline is only enforced on the worker's own clock.  This module runs
the one-shard tasks of :mod:`repro.perf.executor` under a supervisor
with three recovery layers, moving through a small state machine
(``docs/robustness.md``):

``healthy -> rebuild -> poison/degrade-serial``

1. **rebuild** -- a lost worker (``BrokenProcessPool``, raised while
   waiting on a shard *or* while still submitting) or an overrun
   parent-side *hang deadline* (``unit_deadline x``
   :data:`HANG_DEADLINE_FACTOR`) tears the pool down; a fresh pool is
   built (at most :data:`MAX_POOL_REBUILDS` times) and only the
   not-yet-consumed shards are re-dispatched.  Shards that already
   finished before the breakage are salvaged, never re-evaluated.
2. **poison** -- a shard charged with :data:`POISON_AFTER` losses is
   retried serially in the parent; if it dies even there, it is
   quarantined through the evaluator's ``poison_outcome`` (its devices
   counted as ``errors``, one ``site_index == -1`` ledger entry)
   instead of killing the run.
3. **degrade-serial** -- when the rebuild budget is exhausted, the
   remaining shards are evaluated serially in the parent (journalled
   as ``pool.degrade_serial``) rather than aborting.

Determinism contract: outcomes are still yielded strictly in plan
order, and all supervision events (``pool.*``) are emitted parent-side
at the in-order effect point.  An undisturbed run emits no ``pool.*``
events and produces byte-identical records and journals to a serial
run; a disturbed run produces byte-identical *records* (what was
computed never depends on which process computed it).

Exceptions raised *by shard evaluation itself* -- deadline overruns,
crashes while classifying a shard, :exc:`~repro.perf.executor.
WorkerInitError` -- are not supervised: they propagate exactly as a
serial run's do.
"""

from __future__ import annotations

import pickle
from collections.abc import Iterator, Sequence
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any

from repro.experiment.streaming.engine import (
    ShardEvaluator,
    StreamingExperiment,
)
from repro.experiment.streaming.plan import ShardUnit
from repro.perf.executor import (
    WorkerInitError,
    _evaluate_shard,
    _init_worker,
    _pool_context,
    probe_worker_faults,
)
from repro.runner.evaluate import UnitDeadlineExceeded, UnitOutcome

#: Losses charged to one shard before it is retried in the parent (and
#: quarantined as poison if it dies even there).
POISON_AFTER = 3

#: Pool rebuilds allowed before the remaining shards are evaluated
#: serially in the parent.
MAX_POOL_REBUILDS = 8

#: Slack of the parent-side hang deadline over the shard deadline
#: (covers dispatch latency and worker oversubscription): the parent
#: waits ``unit_deadline x HANG_DEADLINE_FACTOR`` for each shard.
HANG_DEADLINE_FACTOR = 4.0


@dataclass
class SupervisorStats:
    """Counters of every supervision action taken during one run.

    Attributes:
        worker_losses: Pool-breaking failures observed (all causes).
        deadline_losses: The subset detected by the parent-side hang
            deadline (hung or silently stopped workers).
        rebuilds: Pools rebuilt after a loss.
        redispatched_units: Shards sent out again after a loss.
        poison_units: Shards quarantined after dying in the parent too.
        degraded_units: Shards evaluated serially in the parent after
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


@dataclass
class _ShardState:
    """One pending shard: losses charged to it, salvage, serial flag."""

    shard: ShardUnit
    failures: int = 0
    #: Outcome salvaged from a future that completed before a pool
    #: breakage elsewhere; served without re-evaluation.
    result: UnitOutcome | None = None
    #: Set once the shard has been charged :data:`POISON_AFTER` losses:
    #: it is retried serially in the parent.
    serial: bool = False


class SupervisedUnitExecutor:
    """Pool executor that heals worker death instead of propagating it.

    Yields the same in-plan-order outcome stream a serial pass of
    :class:`~repro.experiment.streaming.engine.ShardEvaluator` would,
    under the supervision state machine described in the module
    docstring.  The streaming runner uses it for every ``workers > 1``
    run.

    Args:
        engine: The (picklable) lot whose shards the workers evaluate.
        unit_deadline: Per-shard wall-clock budget.  Enforced on the
            worker's clock *and*, scaled by :data:`HANG_DEADLINE_FACTOR`,
            as the parent-side wait for each shard, so hung workers are
            detected.  ``None`` disables both.
        workers: Worker-process count (>= 1).
        bus: Optional :class:`~repro.obs.bus.EventBus` for ``pool.*``
            supervision events (``None`` = silent).
        metrics: Optional :class:`~repro.obs.metrics.MetricsRegistry`
            fed alongside the bus.
    """

    def __init__(self, engine: StreamingExperiment,
                 unit_deadline: float | None = None, workers: int = 2,
                 bus: Any = None, metrics: Any = None) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.engine = engine
        self.unit_deadline = unit_deadline
        self.workers = workers
        self.bus = bus
        self.metrics = metrics
        self.stats = SupervisorStats()
        self._epoch = 0
        self._parent_evaluator: ShardEvaluator | None = None
        #: Per-shard pool-dispatch counts: they feed the chaos probes,
        #: keeping an injected fault a pure function of (shard,
        #: dispatch) whichever shard the parent happens to blame.
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
    def run(self, shards: Sequence[ShardUnit]) -> Iterator[UnitOutcome]:
        """Yield one outcome per shard, in plan order, healing the pool.

        Args:
            shards: Pending shards in plan order.

        Yields:
            :class:`~repro.runner.evaluate.UnitOutcome` per shard.

        Raises:
            WorkerInitError: the worker initializer failed (fatal:
                every worker fails identically, so no rebuild).
            BaseException: whatever shard evaluation itself raised
                (deadline overruns, crashes while classifying);
                supervision covers the *pool*, not the evaluation
                semantics.
        """
        if not shards:
            return
        payload = pickle.dumps((self.engine, self.unit_deadline))
        pending = [_ShardState(shard) for shard in shards]
        while pending:
            # Serve leading shards that need no pool: salvaged results
            # and serial (suspected-poison) retries.
            while pending and (pending[0].result is not None
                               or pending[0].serial):
                state = pending.pop(0)
                yield (state.result if state.result is not None
                       else self._parent_shard(state.shard))
            if not pending:
                return
            if self._epoch > 0:
                if self.stats.rebuilds >= MAX_POOL_REBUILDS:
                    yield from self._drain_serial(pending)
                    return
                self.stats.rebuilds += 1
                self._count("pool.rebuilds")
                self._emit("pool.rebuild", rebuilds=self.stats.rebuilds,
                           budget=MAX_POOL_REBUILDS)
            self._epoch += 1
            yield from self._pool_epoch(payload, pending)

    def _pool_epoch(self, payload: bytes,
                    pending: list[_ShardState]) -> Iterator[UnitOutcome]:
        """One pool lifetime: dispatch, consume in order, stop on loss.

        Consumes (pops and yields) shards from the front of
        ``pending``.  Returns normally either when every shard is
        consumed or after a pool-breaking failure has been handled
        (shard states updated for the next epoch); re-raises
        evaluation-level exceptions.
        """
        pool = ProcessPoolExecutor(max_workers=self.workers,
                                   mp_context=_pool_context(),
                                   initializer=_init_worker,
                                   initargs=(payload,))
        try:
            futures: dict[str, Future[UnitOutcome]] = {}
            try:
                for state in pending:
                    if state.result is not None:
                        continue
                    uid = state.shard.unit_id
                    dispatches = self._dispatches.get(uid, 0)
                    futures[uid] = pool.submit(_evaluate_shard,
                                               state.shard, dispatches)
                    self._dispatches[uid] = dispatches + 1
            except BrokenProcessPool:
                # A worker died while the parent was still submitting:
                # the same loss as one seen through future.result(),
                # charged to the head shard the parent waits on first.
                self._handle_loss(pending, futures, cause="worker-lost")
                return
            while pending:
                state = pending[0]
                if state.result is None:
                    future = futures[state.shard.unit_id]
                    try:
                        state.result = future.result(
                            timeout=self._hang_deadline())
                    except WorkerInitError:
                        raise
                    except FutureTimeoutError:
                        self._handle_loss(pending, futures,
                                          cause="chunk-deadline")
                        return
                    except BrokenProcessPool:
                        self._handle_loss(pending, futures,
                                          cause="worker-lost")
                        return
                pending.pop(0)
                yield state.result
        finally:
            self._teardown(pool)

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------
    def _hang_deadline(self) -> float | None:
        """Parent-side wait for one shard (None = wait forever)."""
        if self.unit_deadline is None:
            return None
        return self.unit_deadline * HANG_DEADLINE_FACTOR

    def _handle_loss(self, pending: list[_ShardState],
                     futures: dict[str, Future[UnitOutcome]],
                     cause: str) -> None:
        """Account a pool-breaking failure of the head shard.

        Emits ``pool.worker_lost``/``pool.redispatch``, salvages later
        shards whose futures already completed, and escalates the head
        shard: redispatch -> serial-in-parent.
        """
        state = pending[0]
        uid = state.shard.unit_id
        state.failures += 1
        self.stats.worker_losses += 1
        if cause == "chunk-deadline":
            self.stats.deadline_losses += 1
        self.stats.redispatched_units += 1
        self._count("pool.worker_losses")
        self._emit("pool.worker_lost", unit=uid, units=1, cause=cause)
        self._emit("pool.redispatch", unit=uid, units=1,
                   attempt=state.failures)
        # Salvage shards that finished before the breakage: their
        # outcomes are already computed and must not be re-evaluated
        # (re-dispatching them would be wasted work, not a correctness
        # problem -- outcomes are pure functions of the shard).
        for other in pending[1:]:
            future = futures.get(other.shard.unit_id)
            if (other.result is None and future is not None
                    and future.done() and not future.cancelled()
                    and future.exception() is None):
                other.result = future.result()
        if state.failures >= POISON_AFTER:
            state.serial = True

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
    def _parent_shard(self, shard: ShardUnit) -> UnitOutcome:
        """Evaluate one shard in the parent, quarantining a fatal one.

        The last line of defence: a shard that reaches here has either
        repeatedly killed its workers (poison retry) or the rebuild
        budget is gone (degraded mode).  A crash here -- anything
        short of the interpreter-level exits and the runner's own
        deadline signal -- is recorded as a poison shard instead of
        propagating.
        """
        if self._parent_evaluator is None:
            self._parent_evaluator = ShardEvaluator(
                self.engine, unit_deadline=self.unit_deadline)
        evaluator = self._parent_evaluator
        dispatches = self._dispatches.get(shard.unit_id, 0)
        try:
            probe_worker_faults(self.engine, shard, dispatches,
                                in_worker=False)
            return evaluator.evaluate(shard)
        except (KeyboardInterrupt, SystemExit, UnitDeadlineExceeded):
            raise
        except BaseException as exc:  # noqa: BLE001 -- quarantined
            error = f"{type(exc).__name__}: {exc}"
            self.stats.poison_units += 1
            self._count("pool.poison_units")
            self._emit("pool.poison_unit", unit=shard.unit_id,
                       attempts=dispatches + 1, error=error)
            return evaluator.poison_outcome(shard, dispatches + 1, error)

    def _drain_serial(self,
                      pending: list[_ShardState]) -> Iterator[UnitOutcome]:
        """Degraded mode: evaluate everything left in the parent."""
        remaining = sum(1 for state in pending if state.result is None)
        self.stats.degraded_units += remaining
        self._count("pool.degraded_units", remaining)
        self._emit("pool.degrade_serial", units=remaining,
                   rebuilds=self.stats.rebuilds)
        for state in pending:
            yield (state.result if state.result is not None
                   else self._parent_shard(state.shard))
