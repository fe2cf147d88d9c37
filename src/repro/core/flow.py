"""End-to-end memory test flow (the paper's Figure 2, orchestrated).

:class:`MemoryTestFlow` wires the pieces together:

1. build/accept the synthetic layout and extract defect sites (IFA);
2. run the one-defect-at-a-time coverage campaign over a resistance grid
   and the production stress-condition suite;
3. collect the results into the pre-calculated database;
4. hand the database to the :class:`FaultCoverageEstimator`.

One call -- ``MemoryTestFlow(geometry).run()`` -- reproduces the paper's
Table 1 for any memory organisation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit.technology import CMOS018, Technology
from repro.core.database import CoverageDatabase
from repro.core.estimator import EstimatorReport, FaultCoverageEstimator
from repro.defects.behavior import BehaviorParams, DefectBehaviorModel
from repro.defects.distribution import DefectDensity
from repro.defects.models import DefectKind
from repro.ifa.flow import TABLE1_RESISTANCES, IfaCampaign
from repro.memory.geometry import MemoryGeometry
from repro.runner.campaign import CampaignResult, CampaignRunner, SweepSpec
from repro.stress import StressCondition, production_conditions


@dataclass
class FlowResult:
    """Everything the flow produced.

    ``campaign`` carries the runner's execution report (quarantine
    ledger, resumed/executed unit counts, retry statistics) when the
    flow ran through the resilient runner.
    """

    database: CoverageDatabase
    estimator: FaultCoverageEstimator
    bridge_report: EstimatorReport
    open_report: EstimatorReport
    campaign: "CampaignResult | None" = None


class MemoryTestFlow:
    """The IFA-based memory test flow.

    Args:
        geometry: Memory organisation to analyse.
        tech: Technology corner.
        behavior_params: Optional calibration override.
        n_sites: Site-population size per campaign.
        seed: Campaign RNG seed.
        density: Fab defect density for the yield/DPM models.
    """

    def __init__(self, geometry: MemoryGeometry,
                 tech: Technology = CMOS018,
                 behavior_params: BehaviorParams | None = None,
                 n_sites: int = 2000, seed: int = 2005,
                 density: DefectDensity | None = None) -> None:
        self.geometry = geometry
        self.tech = tech
        self.behavior = DefectBehaviorModel(tech, params=behavior_params)
        self.campaign = IfaCampaign(geometry, tech, behavior=self.behavior,
                                    n_sites=n_sites, seed=seed)
        self.density = density if density is not None else DefectDensity()

    def conditions(self) -> dict[str, StressCondition]:
        return production_conditions(self.tech)

    def flow_meta(self) -> dict:
        """Campaign fingerprint stored in (and matched against) the
        checkpoint, rich enough for ``repro campaign resume`` to rebuild
        the flow from the file alone."""
        g = self.geometry
        return {
            "geometry": [g.rows, g.columns, g.bits_per_word, g.blocks],
            "tech": self.tech.name,
        }

    def sweep_specs(self,
                    bridge_resistances=TABLE1_RESISTANCES,
                    open_resistances=None) -> list[SweepSpec]:
        """The flow's campaign plan: bridge sweep then open sweep."""
        if open_resistances is None:
            open_resistances = np.logspace(4, 7.5, 12)
        conds = tuple(self.conditions().values())
        return [
            SweepSpec.of(DefectKind.BRIDGE, bridge_resistances, conds),
            SweepSpec.of(DefectKind.OPEN, open_resistances, conds),
        ]

    def make_runner(self, checkpoint_path=None, **runner_kwargs,
                    ) -> CampaignRunner:
        """A resilient runner bound to this flow's campaign."""
        return CampaignRunner(self.campaign,
                              checkpoint_path=checkpoint_path,
                              meta=self.flow_meta(), **runner_kwargs)

    def run(self,
            bridge_resistances=TABLE1_RESISTANCES,
            open_resistances=None,
            yield_fraction: float | None = None,
            checkpoint_path=None,
            runner: CampaignRunner | None = None,
            journal=None) -> FlowResult:
        """Run the full flow and return database + estimator reports.

        Both campaigns execute chunked through the resilient runner
        (:mod:`repro.runner`): per-site failures are retried and
        quarantined rather than fatal, and with ``checkpoint_path``
        set, a killed flow resumes from the last completed (R,
        condition) unit.

        Args:
            bridge_resistances: R sweep for bridges (defaults to the
                paper's Table 1 grid).
            open_resistances: R sweep for opens (defaults to a log grid
                over 10 kOhm .. 30 MOhm covering Figure 8's range).
            yield_fraction: Optional yield override for the DPM model.
            checkpoint_path: Optional checkpoint file enabling
                kill/resume of the whole flow.
            runner: Pre-configured runner (chaos injection, custom
                retry policy); overrides ``checkpoint_path``.
            journal: Optional JSONL run-journal path (or event bus)
                recording the campaign's structured event stream
                (:mod:`repro.obs`); ``None`` keeps observability off
                with zero overhead.
        """
        specs = self.sweep_specs(bridge_resistances, open_resistances)
        if runner is None:
            runner = self.make_runner(checkpoint_path, journal=journal)
        result = runner.run(specs)
        database = CoverageDatabase(result.records)
        estimator = FaultCoverageEstimator(database, density=self.density)
        return FlowResult(
            database=database,
            estimator=estimator,
            bridge_report=estimator.estimate(self.geometry, "bridge",
                                             yield_fraction),
            open_report=estimator.estimate(self.geometry, "open",
                                           yield_fraction),
            campaign=result,
        )
