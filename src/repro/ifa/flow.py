"""The IFA campaign: extract sites, inject defects, record detections.

This is the library's rendition of the paper's Figure 2 flow.  The
extraction step supplies a weighted site population; the campaign sweeps
every site over a resistance grid and the stress conditions, asks the
behavioural model (the distilled analogue simulation) whether each
(site, R, condition) combination is detected, and emits
:class:`CoverageRecord` rows.  Those rows are the "database with
pre-calculated simulation results" of the paper's Section 3 -- the
estimator (:mod:`repro.core.estimator`) interpolates them instead of
re-running simulations.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.circuit.technology import Technology
from repro.defects.behavior import DefectBehaviorModel
from repro.defects.models import Defect, DefectKind
from repro.ifa.extraction import IfaExtractor
from repro.memory.geometry import MemoryGeometry
from repro.stress import StressCondition


@dataclass(frozen=True)
class CoverageRecord:
    """Detected fraction of a defect population at one (R, condition).

    Attributes:
        kind: "bridge" or "open".
        resistance: Defect resistance of the sweep point (ohms).
        condition: Stress-condition name.
        vdd: Supply voltage of the condition.
        period: Clock period of the condition.
        detected: Number of detected sites.
        total: Population size.
        errors: Sites whose behavioural evaluation kept raising and
            were quarantined by the runner (see ``docs/robustness.md``);
            they are counted in neither ``detected`` nor the coverage
            numerator, so coverage degrades conservatively.
    """

    kind: str
    resistance: float
    condition: str
    vdd: float
    period: float
    detected: int
    total: int
    errors: int = 0

    @property
    def coverage(self) -> float:
        return self.detected / self.total if self.total else 0.0

    @property
    def percent(self) -> float:
        return 100.0 * self.coverage


class IfaCampaign:
    """One-defect-at-a-time coverage campaign over extracted sites.

    Args:
        geometry: Memory organisation.
        tech: Technology corner.
        behavior: Behavioural defect model (default built from ``tech``).
        extractor: Site extractor (default built from ``geometry``).
        n_sites: Sampled site-population size per sweep (statistical
            resolution of the coverage percentages; 2000 gives ~±1 %).
        seed: RNG seed (campaigns are deterministic given the seed).
        injector: Optional :class:`~repro.runner.chaos.FaultInjector`
            the runner probes before every site evaluation attempt and
            threads into checkpoint writes (chaos testing); ``None``
            injects nothing.
    """

    def __init__(self, geometry: MemoryGeometry, tech: Technology,
                 behavior: DefectBehaviorModel | None = None,
                 extractor: IfaExtractor | None = None,
                 n_sites: int = 2000, seed: int = 2005,
                 injector: Any = None) -> None:
        if n_sites <= 0:
            raise ValueError("n_sites must be positive")
        self.geometry = geometry
        self.tech = tech
        self.behavior = (behavior if behavior is not None
                         else DefectBehaviorModel(tech))
        self.extractor = (extractor if extractor is not None
                          else IfaExtractor(geometry))
        self.n_sites = n_sites
        self.seed = seed
        self.injector = injector
        self._bridge_pop: list[Defect] | None = None
        self._open_pop: list[Defect] | None = None

    # ------------------------------------------------------------------
    def bridge_population(self) -> list[Defect]:
        """The sampled bridge-site population (R placeholder = 1 kOhm).

        Sampling is deterministic given the seed, so the population is
        memoised after the first call (critical-area extraction and
        sampling dominate short campaigns otherwise); callers get a
        fresh list each time, the Defect instances are frozen.
        """
        if self._bridge_pop is None:
            rng = np.random.default_rng(self.seed)
            self._bridge_pop = self.extractor.sample_bridges(
                self.n_sites, rng)
        return list(self._bridge_pop)

    def open_population(self) -> list[Defect]:
        if self._open_pop is None:
            rng = np.random.default_rng(self.seed + 1)
            self._open_pop = self.extractor.sample_opens(
                self.n_sites, rng)
        return list(self._open_pop)

    # ------------------------------------------------------------------
    def run(self, resistances: Sequence[float],
            conditions: Iterable[StressCondition],
            kind: DefectKind = DefectKind.BRIDGE,
            checkpoint_path=None, runner=None) -> list[CoverageRecord]:
        """Sweep the population over R x conditions.

        Every sampled site keeps its identity (class, strength, cell)
        across the sweep, exactly like re-simulating the same extracted
        defect at a different resistance/corner in the paper's flow.

        Execution is chunked through :class:`repro.runner.campaign.
        CampaignRunner`: one work unit per (R, condition) cell,
        per-site retry with quarantine, and -- when ``checkpoint_path``
        is given -- crash-safe persistence so a killed campaign resumes
        from the last completed unit.

        Args:
            resistances: Resistance grid (must be non-empty, positive).
            conditions: Stress conditions (must be non-empty).
            kind: Defect kind of the sweep.
            checkpoint_path: Optional checkpoint file enabling
                kill/resume for this sweep.
            runner: Pre-configured
                :class:`~repro.runner.campaign.CampaignRunner` (for a
                custom attempt count, a unit deadline or a journal);
                overrides ``checkpoint_path``.

        Raises:
            ValueError: empty ``resistances`` or ``conditions``, or a
                non-positive resistance -- an empty sweep used to
                return an empty record list that only broke the
                estimator much later.
        """
        from repro.runner.campaign import CampaignRunner, SweepSpec

        spec = SweepSpec.of(kind, resistances, conditions)
        if runner is None:
            runner = CampaignRunner(self, checkpoint_path=checkpoint_path)
        return runner.run([spec]).records

    def run_bridges(self, resistances: Sequence[float],
                    conditions: Iterable[StressCondition],
                    ) -> list[CoverageRecord]:
        """Bridge campaign (the paper's Table 1 axis)."""
        return self.run(resistances, conditions, DefectKind.BRIDGE)

    def run_opens(self, resistances: Sequence[float],
                  conditions: Iterable[StressCondition],
                  ) -> list[CoverageRecord]:
        """Open campaign (the paper's Section 4.2/4.3 axis)."""
        return self.run(resistances, conditions, DefectKind.OPEN)


#: The four bridge resistances of the paper's Table 1.
TABLE1_RESISTANCES = (20.0, 1e3, 10e3, 90e3)
