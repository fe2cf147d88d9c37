"""Per-unit evaluation: the per-site loop and oracle of a campaign.

One work unit -- a (kind, R, condition) cell of the campaign sweep --
is evaluated by sweeping the (seeded, deterministic) site population
through the behaviour model under a per-site retry policy, quarantining
sites that keep raising.  :class:`UnitEvaluator` is both the grid
evaluator's fallback body (:mod:`repro.perf.batch` hands it the sites
its batch table cannot answer) and the per-site oracle the grid path
is tested against.  A unit's record depends on nothing but the unit
(``docs/performance.md``):

* the site population regenerates deterministically from the campaign
  seed in every process;
* the behaviour model is a pure function of (defect, condition);
* retry jitter is hashed from the per-site key, never drawn from a
  shared RNG;

so a unit's :class:`~repro.ifa.flow.CoverageRecord` is a pure function
of the unit itself, regardless of evaluation order or of a resume in
between.

:class:`UnitOutcome` is also the unit of observability: it carries
everything the run journal (:mod:`repro.obs`) reports about a unit --
record, retry statistics, quarantine entries -- so events are emitted
once, parent-side, when the outcome is consumed, never from inside
evaluation.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.defects.models import Defect, DefectKind
from repro.ifa.flow import CoverageRecord
from repro.runner.chaos import unit_injections
from repro.runner.retry import (
    DEFAULT_UNIT_POLICY,
    RetryExhaustedError,
    RetryPolicy,
    RetryStats,
    run_with_retry,
)
from repro.runner.units import WorkUnit


class UnitDeadlineExceeded(RuntimeError):
    """A work unit overran the runner's per-unit wall-clock budget.

    Deliberately fatal rather than silently skipping sites: skipping
    would make the emitted records depend on machine speed.  The
    checkpoint keeps every completed unit, so the campaign is resumable
    after the stall's cause is fixed.
    """


def check_unit_deadline(unit_deadline: float | None) -> None:
    """Raise ValueError for a per-unit budget that is set but not > 0."""
    if unit_deadline is not None and unit_deadline <= 0:
        raise ValueError("unit_deadline must be positive")


@dataclass
class UnitOutcome:
    """Everything one work unit's evaluation produced.

    Attributes:
        index: The unit's position in the campaign plan.
        unit_id: The unit's stable checkpoint key.
        record: The emitted coverage record.
        quarantine: Error-ledger entries for sites that exhausted the
            retry budget (in site order).
        stats: Retry counters accumulated while evaluating this unit.
        injections: Fault-injector counter growth attributable to this
            unit (``{site: {"calls": n, "injected": m}}``).  Empty
            outside chaos runs.  Worker processes fill it so the
            parent can merge the fork-copied injector counters back
            (:meth:`~repro.runner.chaos.FaultInjector.merge_counts`).
    """

    index: int
    unit_id: str
    record: CoverageRecord
    quarantine: list[dict[str, Any]] = field(default_factory=list)
    stats: RetryStats = field(default_factory=RetryStats)
    injections: dict[str, dict[str, int]] = field(default_factory=dict)


class UnitEvaluator:
    """Evaluate work units against one campaign's population and model.

    Stateless with respect to unit results (each call is independent);
    stateful only in its derived caches: the per-kind site population
    and the current (kind, R) resistance-variant list, both regenerated
    deterministically from the campaign seed.  One evaluator lives in
    the grid evaluator (:mod:`repro.perf.batch`), which hands it the
    sites its batch table cannot answer; tests build one directly as
    the per-site oracle.

    Args:
        campaign: The :class:`~repro.ifa.flow.IfaCampaign`-shaped
            object supplying site populations and the behaviour model.
        retry: Per-site retry policy (default: three fast attempts).
        unit_deadline: Optional wall-clock budget per unit (seconds);
            overrunning it raises :class:`UnitDeadlineExceeded`.
        sleep: Injectable sleep for the retry machinery.
        clock: Injectable monotonic clock for deadlines.
    """

    def __init__(self, campaign: Any, retry: RetryPolicy | None = None,
                 unit_deadline: float | None = None,
                 sleep: Callable[[float], None] = time.sleep,
                 clock: Callable[[], float] = time.monotonic) -> None:
        check_unit_deadline(unit_deadline)
        self.campaign = campaign
        self.retry = retry if retry is not None else DEFAULT_UNIT_POLICY
        self.unit_deadline = unit_deadline
        self.sleep = sleep
        self.clock = clock
        self._populations: dict[DefectKind, list[Defect]] = {}
        self._variants_key: tuple[DefectKind, float] | None = None
        self._variants: list[Defect] = []

    # ------------------------------------------------------------------
    def population(self, kind: DefectKind) -> list[Defect]:
        """The campaign's (cached) site population for one defect kind."""
        if kind not in self._populations:
            self._populations[kind] = (
                self.campaign.bridge_population()
                if kind is DefectKind.BRIDGE
                else self.campaign.open_population())
        return self._populations[kind]

    def variants_for(self, unit: WorkUnit) -> list[Defect]:
        """The population re-resistanced to the unit's sweep point.

        A single-slot cache keyed on (kind, R): plan order is
        resistance-major, so consecutive units reuse the variant list.
        """
        key = (unit.kind, unit.resistance)
        if key != self._variants_key:
            self._variants = [d.with_resistance(unit.resistance)
                              for d in self.population(unit.kind)]
            self._variants_key = key
        return self._variants

    # ------------------------------------------------------------------
    def evaluate(self, unit: WorkUnit, sites: Sequence[int] | None = None,
                 detected: int = 0,
                 stats: RetryStats | None = None) -> UnitOutcome:
        """Evaluate one unit; quarantine sites that keep raising.

        The grid evaluator (:class:`~repro.perf.batch.BatchEvaluator`)
        answers most sites from a precomputed table and hands only the
        rest to this loop through ``sites``; the defaults evaluate
        every site.

        Args:
            unit: The (kind, R, condition) cell to evaluate.
            sites: Site indices (ascending) to run through the
                behaviour model; ``None`` runs the whole population.
            detected: Detections already known for the sites left out.
            stats: Retry counters to continue (a fresh
                :class:`~repro.runner.retry.RetryStats` by default).

        Returns:
            The unit's record, quarantine entries and retry counters.

        Raises:
            UnitDeadlineExceeded: the unit overran ``unit_deadline``.
        """
        population = self.population(unit.kind)
        variants: Sequence[Defect] | dict[int, Defect]
        if sites is None:
            variants = self.variants_for(unit)
            sites = range(len(variants))
        else:
            variants = {i: population[i].with_resistance(unit.resistance)
                        for i in sites}
        behavior = self.campaign.behavior
        cond = unit.condition
        injections = unit_injections(behavior, unit.unit_id)
        if stats is None:
            stats = RetryStats()
        started = self.clock()
        entries: list[dict[str, Any]] = []
        for position, site_index in enumerate(sites):
            defect = variants[site_index]
            site_key = f"{unit.unit_id}#site{site_index}"
            try:
                if run_with_retry(
                        lambda d=defect: behavior.fails_condition(d, cond),
                        self.retry, site_key,
                        sleep=self.sleep, clock=self.clock, stats=stats):
                    detected += 1
            except RetryExhaustedError as exc:
                entries.append({
                    "unit_id": unit.unit_id,
                    "site_index": site_index,
                    "defect": str(defect),
                    "attempts": exc.attempts,
                    "error": f"{type(exc.causes[-1]).__name__}: "
                             f"{exc.causes[-1]}",
                    "deadline_hit": exc.deadline_hit,
                })
            if (self.unit_deadline is not None
                    and self.clock() - started > self.unit_deadline):
                raise UnitDeadlineExceeded(
                    f"{unit} exceeded its {self.unit_deadline:g}s budget "
                    f"after {position + 1}/{len(sites)} sites; "
                    "completed units are checkpointed -- fix the stall "
                    "and resume")
        record = CoverageRecord(
            kind=unit.kind.value,
            resistance=unit.resistance,
            condition=cond.name,
            vdd=cond.vdd,
            period=cond.period,
            detected=detected,
            total=len(population),
            errors=len(entries),
        )
        return UnitOutcome(index=unit.index, unit_id=unit.unit_id,
                           record=record, quarantine=entries, stats=stats,
                           injections=injections())
