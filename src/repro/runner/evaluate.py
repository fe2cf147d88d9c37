"""Per-unit evaluation: the per-site loop and oracle of a campaign.

One work unit -- a (kind, R, condition) cell of the campaign sweep --
is evaluated by sweeping the (seeded, deterministic) site population
through the behaviour model, each site under a bounded attempt count,
quarantining sites that keep raising.  When the campaign carries a
fault injector (:mod:`repro.runner.chaos`), every attempt first probes
it at :data:`BEHAVIOR_SITE`.  :class:`UnitEvaluator` is both the grid
evaluator's per-site body (:mod:`repro.perf.batch` hands it the sites
its batch table cannot answer, or every site of a chaos campaign) and
the per-site oracle the grid path is tested against.  A unit's record
depends on nothing but the unit (``docs/performance.md``):

* the site population regenerates deterministically from the campaign
  seed in every process;
* the behaviour model is a pure function of (defect, condition);
* the injector's fault pattern is a pure function of its seed and the
  probe order, which is site order within plan order;

so a unit's :class:`~repro.ifa.flow.CoverageRecord` is a pure function
of the unit itself, regardless of a resume in between.

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
from repro.runner.retry import (
    RetryExhaustedError,
    RetryStats,
    check_max_attempts,
    run_with_retry,
)
from repro.runner.units import WorkUnit

#: Injector site probed before every behavioural evaluation attempt.
BEHAVIOR_SITE = "behavior.evaluate"


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
    """

    index: int
    unit_id: str
    record: CoverageRecord
    quarantine: list[dict[str, Any]] = field(default_factory=list)
    stats: RetryStats = field(default_factory=RetryStats)


class UnitEvaluator:
    """Evaluate work units against one campaign's population and model.

    Stateless with respect to unit results (each call is independent);
    stateful only in its derived caches: the per-kind site population
    and the current (kind, R) resistance-variant list, both regenerated
    deterministically from the campaign seed.  One evaluator lives in
    the grid evaluator (:mod:`repro.perf.batch`), which hands it the
    sites its batch table cannot answer (and, under chaos, every site
    with the kernel's answers); tests build one directly as the
    per-site oracle.

    Args:
        campaign: The :class:`~repro.ifa.flow.IfaCampaign`-shaped
            object supplying site populations, the behaviour model and
            the optional fault ``injector``.
        max_attempts: Tries per site evaluation before quarantine.
        unit_deadline: Optional wall-clock budget per unit (seconds);
            overrunning it raises :class:`UnitDeadlineExceeded`.
        clock: Injectable monotonic clock for the unit deadline.
    """

    def __init__(self, campaign: Any, max_attempts: int = 3,
                 unit_deadline: float | None = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        check_max_attempts(max_attempts)
        check_unit_deadline(unit_deadline)
        self.campaign = campaign
        self.max_attempts = max_attempts
        self.unit_deadline = unit_deadline
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
                 known: Sequence[bool | None] | None = None,
                 ) -> UnitOutcome:
        """Evaluate one unit; quarantine sites that keep raising.

        The grid evaluator (:class:`~repro.perf.batch.BatchEvaluator`)
        answers most sites from its kernel table: without an injector
        it hands only the rest to this loop through ``sites``; with
        one, every site runs here (each attempt probes the injector)
        and ``known`` carries the kernel answers.  The defaults
        evaluate every site through the behaviour model.

        Args:
            unit: The (kind, R, condition) cell to evaluate.
            sites: Site indices (ascending) to run through this loop;
                ``None`` runs the whole population.
            detected: Detections already known for the sites left out.
            known: Per-site answers indexed by site (``None`` = ask the
                behaviour model); a known site skips the model call
                but not the injector probe.

        Returns:
            The unit's record, quarantine entries and retry counters.

        Raises:
            UnitDeadlineExceeded: the unit overran ``unit_deadline``.
        """
        population = self.population(unit.kind)
        variants = (self.variants_for(unit)
                    if sites is None and known is None else None)

        def defect_at(i: int) -> Defect:
            if variants is not None:
                return variants[i]
            return population[i].with_resistance(unit.resistance)

        if sites is None:
            sites = range(len(population))
        behavior = self.campaign.behavior
        injector = self.campaign.injector
        cond = unit.condition
        stats = RetryStats()
        started = self.clock()
        entries: list[dict[str, Any]] = []
        for position, site_index in enumerate(sites):
            answer = None if known is None else known[site_index]

            def attempt(i: int = site_index,
                        answer: bool | None = answer) -> bool:
                if injector is not None:
                    injector.check(BEHAVIOR_SITE)
                if answer is not None:
                    return answer
                return behavior.fails_condition(defect_at(i), cond)

            try:
                if run_with_retry(attempt, self.max_attempts,
                                  f"{unit.unit_id}#site{site_index}",
                                  stats):
                    detected += 1
            except RetryExhaustedError as exc:
                entries.append({
                    "unit_id": unit.unit_id,
                    "site_index": site_index,
                    "defect": str(defect_at(site_index)),
                    "attempts": exc.attempts,
                    "error": f"{type(exc.causes[-1]).__name__}: "
                             f"{exc.causes[-1]}",
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
                           record=record, quarantine=entries, stats=stats)
