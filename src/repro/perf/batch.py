"""The grid evaluator: one numpy call per sweep group.

The campaign's evaluator.  Per (kind, condition) group the
behaviour model's optional :meth:`~repro.defects.behavior.
DefectBehaviorModel.evaluate_batch` hook answers the full site x R grid
in **one** vectorised call; per-resistance detection counts are then
precomputed column sums, so evaluating a work unit costs O(1) Python
work instead of O(sites).

**Exactness is guarded, not assumed** -- three layers of defence:

1. the hook's closed forms replicate the scalar float arithmetic
   operation-for-operation (same operand grouping, same comparisons,
   transcendentals through the identical :mod:`math` calls), so its
   answers are bit-identical by construction;
2. a seeded cross-check sample of (site, R) cells is re-evaluated
   through ``fails_condition``; any site whose batch row disagrees is
   demoted to per-unit exact evaluation (ledger reason
   ``lying-model``);
3. a model without the hook -- or whose hook raises or returns the
   wrong shape -- falls back to the scalar path for the whole group,
   reproducing the exact path's records, retries and quarantine
   semantics byte-for-byte.

Sites without a trusted row run through
:meth:`UnitEvaluator.evaluate <repro.runner.evaluate.UnitEvaluator.
evaluate>` itself, called with that site subset -- there is one
per-site loop, not two.

Exact-path equivalence: tests/perf/test_batch.py

Chaos note: :class:`~repro.runner.chaos.ChaosBehaviorModel` explicitly
declines the hook (``evaluate_batch = None``), so chaos campaigns take
the all-scalar fallback and probe the injector site-for-site exactly
like the per-site :class:`~repro.runner.evaluate.UnitEvaluator` oracle
-- same fault pattern, same retry/quarantine ledger, same records.
"""

from __future__ import annotations

import math
import random
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.defects.models import Defect, DefectKind
from repro.runner.evaluate import UnitEvaluator, UnitOutcome
from repro.runner.retry import (
    RetryExhaustedError,
    RetryPolicy,
    RetryStats,
    run_with_retry,
)
from repro.runner.units import WorkUnit

__all__ = [
    "CROSSCHECK_FRACTION",
    "CROSSCHECK_SEED",
    "BatchEvaluator",
    "BatchStats",
]

#: Share of each group's (site, R) cells re-evaluated exactly.  The
#: hook is exact by construction, so the sample is a tripwire for a
#: lying implementation, not the correctness argument.
CROSSCHECK_FRACTION = 0.01

#: Seed of the cross-check sample (mixed with kind, condition and grid
#: length, so a group always checks the same cells).
CROSSCHECK_SEED = 20050806


@dataclass
class BatchStats:
    """Counters describing one grid evaluator's work.

    Attributes:
        groups: (kind, condition) groups whose table was derived.
        sites: Site decisions made across all derived groups.
        batch_sites: Sites answered by the model's ``evaluate_batch``
            hook (zero scalar model invocations).
        fallback_sites: Sites routed to per-unit scalar evaluation
            because the hook was absent, ``None``, raised or returned
            a wrong-shape result.  Whole-group events: every site of
            the group falls back together.
        demoted_sites: Batch-answered sites demoted to scalar
            evaluation by a failed cross-check.
        model_invocations: Total ``fails_condition`` calls issued by
            this evaluator (cross-check + scalar fallback).
        crosscheck_invocations: Subset of ``model_invocations`` spent
            on the consistency guard.
        crosscheck_mismatches: Cross-checked cells that disagreed with
            the batch row (each demotes its site).
        demotions: Forensic ledger of every fast-path rejection: one
            ``{"kind", "condition", "site_index", "reason", "stage",
            "error"}`` entry per event.  ``reason`` is ``lying-model``
            (cross-check disagreed), ``probe-error`` (the hook or a
            check raised) or ``bad-shape`` (the hook returned the
            wrong array shape); group-level entries use
            ``site_index=-1``.  Hook-level entries do not bump
            ``demoted_sites`` -- a group the hook could not answer was
            never on the fast path.
    """

    groups: int = 0
    sites: int = 0
    batch_sites: int = 0
    fallback_sites: int = 0
    demoted_sites: int = 0
    model_invocations: int = 0
    crosscheck_invocations: int = 0
    crosscheck_mismatches: int = 0
    demotions: list[dict[str, Any]] = field(default_factory=list)

    def record_demotion(self, kind: DefectKind, condition: Any,
                        site_index: int, reason: str, stage: str,
                        error: str | None = None) -> None:
        """Append one demotion-ledger entry (never drops the cause)."""
        self.demotions.append({
            "kind": kind.value,
            "condition": condition.name,
            "site_index": site_index,
            "reason": reason,
            "stage": stage,
            "error": error,
        })

    def as_dict(self) -> dict[str, Any]:
        """Counters plus the ledger as a plain JSON-serialisable dict."""
        return {
            "groups": self.groups,
            "sites": self.sites,
            "batch_sites": self.batch_sites,
            "fallback_sites": self.fallback_sites,
            "demoted_sites": self.demoted_sites,
            "model_invocations": self.model_invocations,
            "crosscheck_invocations": self.crosscheck_invocations,
            "crosscheck_mismatches": self.crosscheck_mismatches,
            "demotions": [dict(d) for d in self.demotions],
        }


@dataclass
class _GroupTable:
    """What a unit of one (kind, condition) group needs from its grid.

    Attributes:
        index_of: Resistance -> grid index (plan resistances are reused
            verbatim, so float equality is exact).
        detected_counts: Per grid index: how many trusted sites detect
            at that resistance -- the O(1) core of unit evaluation.
        fallback: Site indices without a trusted row, ascending;
            ``None`` when no site has one (the whole population runs
            exactly).
    """

    index_of: dict[float, int]
    detected_counts: list[int]
    fallback: list[int] | None


class BatchEvaluator:
    """Evaluate work units from whole-group batch-hook answers.

    Presents the :class:`~repro.runner.evaluate.UnitEvaluator`
    ``evaluate(unit) -> UnitOutcome`` interface and emits identical
    :class:`~repro.ifa.flow.CoverageRecord` payloads; the difference is
    that a unit whose group table is derived costs O(1) Python work
    plus the per-site loop over its fallback sites, which it hands to
    its own ``exact`` :class:`~repro.runner.evaluate.UnitEvaluator`.
    Group tables are built lazily on the first unit of each (kind,
    condition) group; retry counters spent on a group's cross-check
    are folded into that triggering unit's outcome so campaign-wide
    tallies stay complete.

    Args:
        campaign: The :class:`~repro.ifa.flow.IfaCampaign`-shaped
            object supplying site populations and the behaviour model.
        plan: The **full** unit plan (not only pending units): each
            group's resistance grid is derived from the complete
            sweep, so the cross-check sample does not depend on
            checkpoint state.  Only units of this plan may be
            evaluated.
        retry: Per-site retry policy (shared with the exact path).
        crosscheck_fraction: Share of each group's cells re-evaluated
            exactly (default :data:`CROSSCHECK_FRACTION`; tests pass
            1.0 for a full check).
        unit_deadline: Optional wall-clock budget (seconds) for one
            unit's scalar-fallback loop.  Group-table derivation is
            excluded: it amortises over the whole group, so charging
            it to the triggering unit would trip the budget
            spuriously.
        sleep: Injectable sleep for the retry machinery.
        clock: Injectable monotonic clock for deadlines.
    """

    def __init__(self, campaign: Any, plan: Sequence[WorkUnit],
                 retry: RetryPolicy | None = None,
                 crosscheck_fraction: float = CROSSCHECK_FRACTION,
                 unit_deadline: float | None = None,
                 sleep: Callable[[float], None] = time.sleep,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.exact = UnitEvaluator(campaign, retry=retry,
                                   unit_deadline=unit_deadline,
                                   sleep=sleep, clock=clock)
        if not 0.0 <= crosscheck_fraction <= 1.0:
            raise ValueError("crosscheck_fraction must be in [0, 1]")
        self.campaign = campaign
        self.crosscheck_fraction = crosscheck_fraction
        self.stats = BatchStats()
        self._grids: dict[tuple[DefectKind, Any], list[float]] = {}
        for unit in plan:
            grid = self._grids.setdefault((unit.kind, unit.condition), [])
            if unit.resistance not in grid:
                grid.append(unit.resistance)
        for grid in self._grids.values():
            grid.sort()
        self._groups: dict[tuple[DefectKind, Any], _GroupTable] = {}
        self._pending_group_stats = RetryStats()

    # ------------------------------------------------------------------
    # Group tables
    # ------------------------------------------------------------------
    def _group(self, kind: DefectKind, condition: Any) -> _GroupTable:
        """The (lazily built) group table for one (kind, condition)."""
        gkey = (kind, condition)
        table = self._groups.get(gkey)
        if table is None:
            grid = self._grids[gkey]
            population = self.exact.population(kind)
            self.stats.groups += 1
            self.stats.sites += len(population)
            table = self._derive_group(kind, condition, grid, population)
            self._groups[gkey] = table
        return table

    def _derive_group(self, kind: DefectKind, condition: Any,
                      grid: list[float], population: Sequence[Defect],
                      ) -> _GroupTable:
        """One batch-hook call for the group, cross-checked.

        The hook is a capability probe, never an obligation: absent or
        ``None`` routes the whole group to the scalar path silently; a
        raising hook or a wrong-shape result does the same but leaves
        a demotion-ledger entry naming the cause.  Only the column
        sums and the fallback indices outlive this call, not the
        matrix.
        """
        n = len(population)
        index_of = {r: j for j, r in enumerate(grid)}
        scalar = _GroupTable(index_of, [0] * len(grid), None)
        hook = getattr(self.campaign.behavior, "evaluate_batch", None)
        if hook is None:
            self.stats.fallback_sites += n
            return scalar
        try:
            matrix = np.asarray(hook(population, list(grid), condition),
                                dtype=bool)
        except Exception as exc:
            self.stats.record_demotion(
                kind, condition, -1, "probe-error", "batch",
                error=f"evaluate_batch: {type(exc).__name__}: {exc}")
            self.stats.fallback_sites += n
            return scalar
        if matrix.shape != (n, len(grid)):
            self.stats.record_demotion(
                kind, condition, -1, "bad-shape", "batch",
                error=f"evaluate_batch returned shape {matrix.shape}, "
                      f"expected {(n, len(grid))}")
            self.stats.fallback_sites += n
            return scalar
        self.stats.batch_sites += n
        demoted = self._crosscheck(kind, condition, grid, population,
                                   matrix)
        trusted = np.ones(n, dtype=bool)
        trusted[demoted] = False
        counts = matrix[trusted].sum(axis=0)
        return _GroupTable(index_of, [int(c) for c in counts], demoted)

    def _crosscheck(self, kind: DefectKind, condition: Any,
                    grid: Sequence[float], population: Sequence[Defect],
                    matrix: np.ndarray) -> list[int]:
        """Re-evaluate a seeded cell sample exactly; return the liars.

        Any site whose batch row disagrees with an exact evaluation --
        or whose check exhausts its retries -- is demoted to exact
        per-unit evaluation.

        Returns:
            The demoted site indices, ascending.
        """
        total = len(population) * len(grid)
        if self.crosscheck_fraction <= 0.0 or total == 0:
            return []
        samples = min(total, max(1, math.ceil(
            self.crosscheck_fraction * total)))
        rng = random.Random(f"{CROSSCHECK_SEED}:"
                            f"{kind.value}:{condition.name}:{len(grid)}")
        behavior = self.campaign.behavior
        exact = self.exact
        demoted: set[int] = set()
        for cell in rng.sample(range(total), samples):
            site_index, j = divmod(cell, len(grid))
            if site_index in demoted:
                continue
            defect = population[site_index].with_resistance(grid[j])
            self.stats.crosscheck_invocations += 1
            self.stats.model_invocations += 1
            try:
                detected = run_with_retry(
                    lambda: behavior.fails_condition(defect, condition),
                    exact.retry,
                    f"batch-check:{kind.value}:{condition.name}"
                    f"#site{site_index}@{grid[j]!r}",
                    sleep=exact.sleep, clock=exact.clock,
                    stats=self._pending_group_stats)
            except RetryExhaustedError as exc:
                demoted.add(site_index)
                self.stats.demoted_sites += 1
                self.stats.record_demotion(
                    kind, condition, site_index, "probe-error",
                    "crosscheck", error=f"{type(exc).__name__}: {exc}")
                continue
            batch = bool(matrix[site_index, j])
            if detected != batch:
                demoted.add(site_index)
                self.stats.crosscheck_mismatches += 1
                self.stats.demoted_sites += 1
                self.stats.record_demotion(
                    kind, condition, site_index, "lying-model",
                    "crosscheck",
                    error=f"batch row says {batch}, exact says "
                          f"{detected} at R={grid[j]!r}")
        return sorted(demoted)

    # ------------------------------------------------------------------
    # Unit evaluation
    # ------------------------------------------------------------------
    def evaluate(self, unit: WorkUnit) -> UnitOutcome:
        """Evaluate one unit from its group table (exact where demoted).

        Trusted sites are answered by the precomputed column sum; the
        fallback sites run through :meth:`UnitEvaluator.evaluate
        <repro.runner.evaluate.UnitEvaluator.evaluate>` with the same
        site keys, injector bookkeeping and quarantine semantics, so a
        whole-group fallback is the exact path byte-for-byte -- retry
        jitter, chaos probes, ledger and all.

        Args:
            unit: A (kind, R, condition) cell of the plan.

        Returns:
            A :class:`~repro.runner.evaluate.UnitOutcome` whose record
            is byte-identical to the exact path's.

        Raises:
            UnitDeadlineExceeded: the scalar-fallback loop overran
                ``unit_deadline``.
        """
        table = self._group(unit.kind, unit.condition)
        # Attribute retry counters spent cross-checking the group to
        # the unit that triggered the build, so tallies stay complete.
        stats = RetryStats()
        stats.merge(self._pending_group_stats)
        self._pending_group_stats = RetryStats()
        if table.fallback is None:
            self.stats.model_invocations += len(
                self.exact.population(unit.kind))
            return self.exact.evaluate(unit, stats=stats)
        self.stats.model_invocations += len(table.fallback)
        return self.exact.evaluate(
            unit, table.fallback,
            table.detected_counts[table.index_of[unit.resistance]], stats)
