"""Worker side of the lot's process pool: one shard per task.

The pool's only client is the streaming experiment
(:mod:`repro.experiment.streaming`): every shard of the lot is
independent of every other, so the only serial parts are planning,
the in-order reduce and checkpointing.  Campaigns run serially on the
grid evaluator (:mod:`repro.perf.batch`), which beats a pool at every
size measured (``docs/performance.md``).  This module holds the worker
side of the pool that
:class:`~repro.perf.supervisor.SupervisedUnitExecutor` runs over a
:class:`concurrent.futures.ProcessPoolExecutor`:

* each worker process builds its
  :class:`~repro.experiment.streaming.engine.ShardEvaluator` once (pool
  initializer :func:`_init_worker`) from the pickled
  ``(engine, unit_deadline)`` payload;
* every pool task is exactly one shard (:func:`_evaluate_shard`): a
  shard is thousands of devices, so per-task IPC is negligible, and
  the parent can give each shard its own hang deadline and blame a
  worker death on the one shard it was running;
* the parent consumes results **in submission order**, so downstream
  consumers (the accumulator merge, quarantine ledger, checkpoint
  writes) observe exactly the serial plan order -- out-of-order
  *execution*, in-order *effects*;
* results are byte-identical to a serial run because shard evaluation
  is a pure function of the shard.

A worker whose *initializer* failed (unpicklable payload, import
error) surfaces as :exc:`WorkerInitError` naming the underlying cause.

Observability (:mod:`repro.obs`) rides the same in-order effect point:
workers emit **no** events -- every journal entry is derived
parent-side from the :class:`~repro.runner.outcome.UnitOutcome` as it
is consumed in plan order, which is why a pooled journal is
byte-identical to a serial one.
"""

from __future__ import annotations

import multiprocessing
import pickle

from repro.experiment.streaming.engine import (
    ShardEvaluator,
    StreamingExperiment,
)
from repro.experiment.streaming.plan import ShardUnit
from repro.runner.outcome import UnitOutcome

_EVALUATOR: ShardEvaluator | None = None

#: Cause of a failed worker initialisation (worker-side; shipped to the
#: parent inside the :exc:`WorkerInitError` every task then raises).
_INIT_ERROR: str | None = None

#: True in pool worker processes (set by the initializer) -- tells the
#: chaos probe whether an injected worker death may really die.
_IN_WORKER = False


class WorkerInitError(RuntimeError):
    """The pool initializer failed; the message names the cause.

    Without this, a payload that cannot unpickle in the worker (or an
    initializer import error) made every task die with a bare
    ``AssertionError`` -- the actual exception was swallowed by the
    pool machinery.  The initializer instead records the cause and
    lets the worker live; the first task raises this error carrying
    it.  Not retryable: every worker of the pool fails identically,
    so the supervisor re-raises it instead of rebuilding.
    """


def _init_worker(payload: bytes) -> None:
    """Pool initializer: build this process's shard evaluator once.

    Never raises: an exception here would kill the worker before any
    task could report *why*, leaving the parent with an opaque
    ``BrokenProcessPool``.  The cause is recorded instead and surfaced
    by :func:`_evaluate_shard` as :exc:`WorkerInitError`.
    """
    global _EVALUATOR, _INIT_ERROR, _IN_WORKER
    _IN_WORKER = True
    try:
        engine, unit_deadline = pickle.loads(payload)
        _EVALUATOR = ShardEvaluator(engine, unit_deadline=unit_deadline)
    except BaseException as exc:  # noqa: BLE001 -- reported, not lost
        _INIT_ERROR = f"{type(exc).__name__}: {exc}"


def probe_worker_faults(engine: StreamingExperiment, shard: ShardUnit,
                        dispatches: int, in_worker: bool) -> None:
    """Fire the worker-level chaos probe for one dispatched shard.

    A no-op unless the engine carries a fault ``injector`` (the lot's
    worker-fault table).  Probed by the worker just before evaluating
    (where an injected death really dies) and by the supervisor before
    an in-parent retry (where it raises instead).
    """
    if engine.injector is not None:
        engine.injector.check_worker(shard.unit_id, dispatches,
                                     in_worker=in_worker)


def _evaluate_shard(shard: ShardUnit, dispatches: int) -> UnitOutcome:
    """Worker task: evaluate one shard.

    ``dispatches`` is the shard's 0-based pool-dispatch count (the
    supervisor increments it on every submission); it only feeds the
    chaos probe, keeping injected worker deaths a pure function of
    (shard, dispatch) across processes.
    """
    if _EVALUATOR is None:
        raise WorkerInitError(
            "worker initializer failed"
            + (f": {_INIT_ERROR}" if _INIT_ERROR else " (did not run)"))
    probe_worker_faults(_EVALUATOR.engine, shard, dispatches,
                        in_worker=_IN_WORKER)
    return _EVALUATOR.evaluate(shard)


def _pool_context() -> multiprocessing.context.BaseContext:
    """The multiprocessing context used for worker pools.

    Prefers ``fork`` where available (no re-import cost, inherits
    ``sys.path``); falls back to the platform default elsewhere.
    """
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()
