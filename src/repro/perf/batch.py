"""The grid evaluator: one numpy call per sweep group.

The campaign's evaluator.  Per (kind, condition) group the behaviour
model's :meth:`~repro.defects.behavior.DefectBehaviorModel.
evaluate_batch` kernel answers the full site x R grid in **one**
vectorised call; per-resistance detection counts are then precomputed
column sums, so evaluating a work unit costs O(1) Python work instead
of O(sites).  The kernel is a requirement of campaign evaluation, not
a probed capability: a kernel that raises is a bug and propagates
(completed units stay in the checkpoint).

**Exactness is guarded, not assumed** -- two layers of defence:

1. the kernel's closed forms replicate the scalar float arithmetic
   operation-for-operation (same operand grouping, same comparisons,
   transcendentals through the identical :mod:`math` calls), so its
   answers are bit-identical by construction;
2. a seeded cross-check sample of (site, R) cells is re-evaluated
   through ``fails_condition``; any site whose batch row disagrees is
   demoted to per-unit exact evaluation (ledger reason
   ``lying-model``).

Sites without a trusted row run through
:meth:`UnitEvaluator.evaluate <repro.runner.evaluate.UnitEvaluator.
evaluate>` itself, called with that site subset -- there is one
per-site loop, not two.

Exact-path equivalence: tests/perf/test_batch.py

Chaos: a campaign with a fault ``injector`` must probe it once per
site and attempt, in site order, exactly like the per-site oracle.
Its units therefore run every site through that same per-site loop,
which reads each trusted site's answer from the kernel row instead of
calling the model -- same fault pattern, same retry/quarantine ledger,
same records, and the same model calls as a chaos-free run.
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
from repro.runner.units import WorkUnit

__all__ = [
    "CROSSCHECK_FRACTION",
    "CROSSCHECK_SEED",
    "BatchEvaluator",
    "BatchStats",
]

#: Share of each group's (site, R) cells re-evaluated exactly.  The
#: kernel is exact by construction, so the sample is a tripwire for a
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
            kernel.
        demoted_sites: Batch-answered sites demoted to scalar
            evaluation by a failed cross-check.
        model_invocations: Total ``fails_condition`` calls issued by
            this evaluator (cross-check + demoted sites).
        crosscheck_invocations: Subset of ``model_invocations`` spent
            on the consistency guard.
        crosscheck_mismatches: Cross-checked cells that disagreed with
            the batch row (each demotes its site).
        demotions: Forensic ledger of every demoted site: one
            ``{"kind", "condition", "site_index", "reason", "stage",
            "error"}`` entry per site, with ``reason`` ``lying-model``
            (the cross-check disagreed with the batch row) and
            ``stage`` ``crosscheck``.
    """

    groups: int = 0
    sites: int = 0
    batch_sites: int = 0
    demoted_sites: int = 0
    model_invocations: int = 0
    crosscheck_invocations: int = 0
    crosscheck_mismatches: int = 0
    demotions: list[dict[str, Any]] = field(default_factory=list)

    def as_dict(self) -> dict[str, Any]:
        """Counters plus the ledger as a plain JSON-serialisable dict."""
        return {
            "groups": self.groups,
            "sites": self.sites,
            "batch_sites": self.batch_sites,
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
        matrix: The kernel's site x R answers (n x m booleans), read
            site by site when the campaign has an injector.
        detected_counts: Per grid index: how many trusted sites detect
            at that resistance -- the O(1) core of unit evaluation.
        demoted: Site indices without a trusted row, ascending.
    """

    index_of: dict[float, int]
    matrix: np.ndarray
    detected_counts: list[int]
    demoted: list[int]


class BatchEvaluator:
    """Evaluate work units from whole-group kernel answers.

    Presents the :class:`~repro.runner.evaluate.UnitEvaluator`
    ``evaluate(unit) -> UnitOutcome`` interface and emits identical
    :class:`~repro.ifa.flow.CoverageRecord` payloads; the difference is
    that a unit costs O(1) Python work plus the per-site loop over its
    demoted sites, which it hands to its own ``exact``
    :class:`~repro.runner.evaluate.UnitEvaluator` (a chaos campaign
    hands it every site, with the kernel's answers).  Group tables are
    built lazily on the first unit of each (kind, condition) group.

    Args:
        campaign: The :class:`~repro.ifa.flow.IfaCampaign`-shaped
            object supplying site populations, the behaviour model and
            the optional fault ``injector``.
        plan: The **full** unit plan (not only pending units): each
            group's resistance grid is derived from the complete
            sweep, so the cross-check sample does not depend on
            checkpoint state.  Only units of this plan may be
            evaluated.
        max_attempts: Tries per site evaluation before quarantine
            (shared with the exact path).
        crosscheck_fraction: Share of each group's cells re-evaluated
            exactly (default :data:`CROSSCHECK_FRACTION`; tests pass
            1.0 for a full check).
        unit_deadline: Optional wall-clock budget (seconds) for one
            unit's per-site loop.  Group-table derivation is excluded:
            it amortises over the whole group, so charging it to the
            triggering unit would trip the budget spuriously.
        clock: Injectable monotonic clock for deadlines.
    """

    def __init__(self, campaign: Any, plan: Sequence[WorkUnit],
                 max_attempts: int = 3,
                 crosscheck_fraction: float = CROSSCHECK_FRACTION,
                 unit_deadline: float | None = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.exact = UnitEvaluator(campaign, max_attempts=max_attempts,
                                   unit_deadline=unit_deadline,
                                   clock=clock)
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
            self.stats.batch_sites += len(population)
            matrix = self.campaign.behavior.evaluate_batch(
                population, list(grid), condition)
            demoted = self._crosscheck(kind, condition, grid, population,
                                       matrix)
            trusted = np.ones(len(population), dtype=bool)
            trusted[demoted] = False
            counts = matrix[trusted].sum(axis=0)
            table = _GroupTable({r: j for j, r in enumerate(grid)},
                                matrix, [int(c) for c in counts], demoted)
            self._groups[gkey] = table
        return table

    def _crosscheck(self, kind: DefectKind, condition: Any,
                    grid: Sequence[float], population: Sequence[Defect],
                    matrix: np.ndarray) -> list[int]:
        """Re-evaluate a seeded cell sample exactly; return the liars.

        Any site whose batch row disagrees with an exact evaluation is
        demoted to exact per-unit evaluation.  The check asks the
        behaviour model directly: it never probes the injector, so
        chaos leaves the sample and its verdicts unchanged.

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
        demoted: set[int] = set()
        for cell in rng.sample(range(total), samples):
            site_index, j = divmod(cell, len(grid))
            if site_index in demoted:
                continue
            defect = population[site_index].with_resistance(grid[j])
            self.stats.crosscheck_invocations += 1
            self.stats.model_invocations += 1
            detected = behavior.fails_condition(defect, condition)
            batch = bool(matrix[site_index, j])
            if detected != batch:
                demoted.add(site_index)
                self.stats.crosscheck_mismatches += 1
                self.stats.demoted_sites += 1
                self.stats.demotions.append({
                    "kind": kind.value,
                    "condition": condition.name,
                    "site_index": site_index,
                    "reason": "lying-model",
                    "stage": "crosscheck",
                    "error": f"batch row says {batch}, exact says "
                             f"{detected} at R={grid[j]!r}",
                })
        return sorted(demoted)

    # ------------------------------------------------------------------
    # Unit evaluation
    # ------------------------------------------------------------------
    def evaluate(self, unit: WorkUnit) -> UnitOutcome:
        """Evaluate one unit from its group table (exact where demoted).

        Without an injector, trusted sites are answered by the
        precomputed column sum and only the demoted sites run through
        :meth:`UnitEvaluator.evaluate <repro.runner.evaluate.
        UnitEvaluator.evaluate>`.  With one, every site runs through
        that loop in site order -- each attempt probing the injector,
        trusted sites reading the kernel row -- so the fault pattern,
        retry counters and quarantine ledger are the per-site
        oracle's.

        Args:
            unit: A (kind, R, condition) cell of the plan.

        Returns:
            A :class:`~repro.runner.evaluate.UnitOutcome` whose record
            is byte-identical to the exact path's.

        Raises:
            UnitDeadlineExceeded: the per-site loop overran
                ``unit_deadline``.
        """
        table = self._group(unit.kind, unit.condition)
        j = table.index_of[unit.resistance]
        self.stats.model_invocations += len(table.demoted)
        if self.campaign.injector is None:
            return self.exact.evaluate(unit, table.demoted,
                                       table.detected_counts[j])
        known: list[bool | None] = table.matrix[:, j].tolist()
        for site_index in table.demoted:
            known[site_index] = None
        return self.exact.evaluate(unit, known=known)
