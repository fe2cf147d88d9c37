"""The IFA campaign: extract sites, inject defects, record detections.

This is the library's rendition of the paper's Figure 2 flow.  The
extraction step supplies a weighted site population; the campaign sweeps
every site over a resistance grid and the stress conditions, asks the
behavioural model (the distilled analogue simulation) whether each
(site, R, condition) combination is detected, and emits
:class:`~repro.core.records.CoverageRecord` rows.  Those rows are the
"database with pre-calculated simulation results" of the paper's
Section 3 -- the estimator (:mod:`repro.core.estimator`) interpolates
them instead of re-running simulations.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.circuit.technology import Technology
from repro.defects.behavior import DefectBehaviorModel
from repro.defects.models import DefectArrays, DefectKind
from repro.ifa.extraction import IfaExtractor
from repro.memory.geometry import MemoryGeometry
from repro.stress import StressCondition

if TYPE_CHECKING:
    from repro.core.records import CoverageRecord


class IfaCampaign:
    """One-defect-at-a-time coverage campaign over extracted sites.

    Args:
        geometry: Memory organisation.
        tech: Technology corner.
        behavior: Behavioural defect model (default built from ``tech``).
        n_sites: Sampled site-population size per sweep (statistical
            resolution of the coverage percentages; 2000 gives ~±1 %).
        seed: RNG seed (campaigns are deterministic given the seed).

    Sites come from the calibrated ``IfaExtractor(geometry)``.  The
    ``injector`` attribute, ``None`` unless a chaos run sets a
    :class:`~repro.runner.chaos.FaultInjector`, is probed by the runner
    before every site evaluation attempt and threaded into checkpoint
    writes.
    """

    def __init__(self, geometry: MemoryGeometry, tech: Technology,
                 behavior: DefectBehaviorModel | None = None,
                 n_sites: int = 2000, seed: int = 2005) -> None:
        if n_sites <= 0:
            raise ValueError("n_sites must be positive")
        self.geometry = geometry
        self.tech = tech
        self.behavior = (behavior if behavior is not None
                         else DefectBehaviorModel(tech))
        self.extractor = IfaExtractor(geometry)
        self.n_sites = n_sites
        self.seed = seed
        self.injector: Any = None
        self._populations: dict[DefectKind, DefectArrays] = {}

    # ------------------------------------------------------------------
    def population(self, kind: DefectKind) -> DefectArrays:
        """The sampled site population of ``kind`` (R placeholder = 1 kOhm).

        Bridges draw from ``default_rng(seed)``, opens from
        ``default_rng(seed + 1)``.  Sampling is deterministic given the
        seed, so the population is memoised after the first call; its
        arrays are read-only.  A :class:`~repro.defects.models.Defect`
        is materialised only where one is evaluated alone
        (:meth:`~repro.defects.models.DefectArrays.defect`).
        """
        arrays = self._populations.get(kind)
        if arrays is None:
            seed = self.seed if kind is DefectKind.BRIDGE else self.seed + 1
            arrays = self.extractor.sample(
                self.n_sites, np.random.default_rng(seed), kind)
            for array in (arrays.codes, arrays.strengths,
                          arrays.resistances, arrays.cells,
                          arrays.polarities):
                array.flags.writeable = False
            self._populations[kind] = arrays
        return arrays

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


#: The four bridge resistances of the paper's Table 1.
TABLE1_RESISTANCES = (20.0, 1e3, 10e3, 90e3)
