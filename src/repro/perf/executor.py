"""Process-pool building blocks: fan the streaming lot out across cores.

The pool's only client is the streaming experiment
(:mod:`repro.experiment.streaming`): every shard of the lot is
independent of every other, so the only serial parts are planning,
the in-order reduce and checkpointing.  Campaigns run serially on the
grid evaluator (:mod:`repro.perf.batch`), which beats this pool at
every size measured (``docs/performance.md``).  This module holds the
worker side of the pool that
:class:`~repro.perf.supervisor.SupervisedUnitExecutor` runs over a
:class:`concurrent.futures.ProcessPoolExecutor`:

* pending shards are split into **contiguous chunks** in plan order
  (:func:`chunk_units`), so the chunk at the head of the queue is
  always the next one the in-order reduce needs;
* each worker process rebuilds its evaluator once (pool initializer
  :func:`_init_worker`) from a pickled payload, through the
  experiment's ``unit_evaluator`` factory, then evaluates whole
  chunks per task (:func:`_evaluate_chunk`), keeping IPC per shard
  negligible;
* the parent consumes chunk results **in submission order**, so
  downstream consumers (the accumulator merge, quarantine ledger,
  checkpoint writes) observe exactly the serial plan order --
  out-of-order *execution*, in-order *effects*;
* results are byte-identical to a serial run because shard evaluation
  is a pure function of the shard.

A worker whose *initializer* failed (unpicklable payload, import
error) surfaces as :exc:`WorkerInitError` naming the underlying cause.

Observability (:mod:`repro.obs`) rides the same in-order effect point:
workers emit **no** events -- every journal entry is derived
parent-side from the :class:`~repro.runner.evaluate.UnitOutcome` as it
is consumed in plan order, which is why a pooled journal is
byte-identical to a serial one.
"""

from __future__ import annotations

import multiprocessing
import pickle
from collections.abc import Sequence
from typing import Any

from repro.runner.evaluate import UnitOutcome
from repro.runner.units import WorkUnit

#: Chunks-per-worker target used when no explicit chunk size is given:
#: enough chunks that a straggler cannot idle the pool, few enough that
#: per-chunk dispatch overhead stays negligible.
DEFAULT_CHUNKS_PER_WORKER = 4

_EVALUATOR: Any = None

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
    """Pool initializer: rebuild this process's evaluator once.

    Never raises: an exception here would kill the worker before any
    task could report *why*, leaving the parent with an opaque
    ``BrokenProcessPool``.  The cause is recorded instead and surfaced
    by :func:`_evaluate_chunk` as :exc:`WorkerInitError`.
    """
    global _EVALUATOR, _INIT_ERROR, _IN_WORKER
    _IN_WORKER = True
    try:
        campaign, unit_deadline = pickle.loads(payload)
        _EVALUATOR = campaign.unit_evaluator(unit_deadline=unit_deadline)
    except BaseException as exc:  # noqa: BLE001 -- reported, not lost
        _INIT_ERROR = f"{type(exc).__name__}: {exc}"


def probe_worker_faults(campaign: Any, unit: WorkUnit, attempt: int,
                        in_worker: bool) -> None:
    """Fire the worker-level chaos probe for one dispatched unit.

    A no-op unless the campaign carries a fault ``injector`` (the
    lot's worker-fault table).  Probed by the worker just before
    evaluating (where an injected death really dies) and by the
    supervisor before an in-parent retry (where it raises instead).
    """
    if campaign.injector is not None:
        campaign.injector.check_worker(unit.unit_id, attempt,
                                       in_worker=in_worker)


def _evaluate_chunk(chunk: list[WorkUnit],
                    attempts: Sequence[int] | None = None,
                    ) -> list[UnitOutcome]:
    """Worker task: evaluate one contiguous chunk of work units.

    ``attempts`` carries each unit's 0-based dispatch count (the
    supervisor increments a unit's count on every pool submission); it
    only feeds the chaos probe, keeping injected worker deaths a pure
    function of (unit, attempt) across processes.
    """
    if _EVALUATOR is None:
        raise WorkerInitError(
            "worker initializer failed"
            + (f": {_INIT_ERROR}" if _INIT_ERROR else " (did not run)"))
    if attempts is None:
        attempts = [0] * len(chunk)
    outcomes = []
    for unit, attempt in zip(chunk, attempts):
        probe_worker_faults(_EVALUATOR.campaign, unit, attempt,
                            in_worker=_IN_WORKER)
        outcomes.append(_EVALUATOR.evaluate(unit))
    return outcomes


def chunk_units(units: Sequence[WorkUnit], workers: int,
                chunksize: int | None = None) -> list[list[WorkUnit]]:
    """Split units into contiguous plan-order chunks.

    Contiguity is what lets the supervisor consume chunk results in
    submission order: the head chunk always holds the next units the
    in-order reduce needs.

    Args:
        units: Pending work units in plan order.
        workers: Worker-process count (sizes the automatic chunking).
        chunksize: Explicit units-per-chunk; computed from
            ``workers`` x :data:`DEFAULT_CHUNKS_PER_WORKER` when
            omitted.

    Returns:
        Non-empty contiguous chunks covering ``units`` in order.

    Raises:
        ValueError: non-positive ``chunksize`` or ``workers``.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if chunksize is None:
        target = workers * DEFAULT_CHUNKS_PER_WORKER
        chunksize = max(1, -(-len(units) // target)) if units else 1
    if chunksize < 1:
        raise ValueError("chunksize must be >= 1")
    return [list(units[i:i + chunksize])
            for i in range(0, len(units), chunksize)]


def _pool_context() -> multiprocessing.context.BaseContext:
    """The multiprocessing context used for worker pools.

    Prefers ``fork`` where available (no re-import cost, inherits
    ``sys.path``); falls back to the platform default elsewhere.
    """
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()
