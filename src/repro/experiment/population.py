"""Monte-Carlo device population for the silicon experiment.

Stands in for the paper's ~11k assembled SRAM parts: defect counts per
chip follow the Poisson yield model, defect kinds follow the fab's
bridge/open mix, sites come from the IFA extractor and resistances from
the fab distributions.  The same behaviour model that powers the
estimator decides each device's pass/fail at each condition -- which is
the point: the paper's headline observation is that simulation
(estimator) and silicon (population) agree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit.technology import CMOS018, Technology
from repro.defects.distribution import (
    DefectDensity,
    ResistanceDistribution,
    default_bridge_distribution,
    default_open_distribution,
)
from repro.ifa.extraction import IfaExtractor
from repro.memory.geometry import VEQTOR4_INSTANCE, MemoryGeometry
from repro.experiment.veqtor import VeqtorChip


@dataclass(frozen=True)
class PopulationSpec:
    """Parameters of the simulated lot.

    Attributes:
        n_devices: Number of parts tested (the paper: ~11000).
        density: Defect density / kind mix.  The default reflects a
            process-qualification lot (elevated D0 relative to a mature
            ramp).
        seed: RNG seed; the lot is deterministic given the seed.
    """

    n_devices: int = 11000
    density: DefectDensity = DefectDensity(d0_per_cm2=3.5, bridge_fraction=0.8)
    seed: int = 1105


class PopulationGenerator:
    """Draws Veqtor4 lots.

    Args:
        spec: Lot parameters.
        geometry: Per-instance memory organisation.
        tech: Technology corner.
        bridge_distribution / open_distribution: Fab R distributions.
        extractor: IFA site extractor (supplies site classes/strengths).
    """

    def __init__(self, spec: PopulationSpec | None = None,
                 geometry: MemoryGeometry = VEQTOR4_INSTANCE,
                 tech: Technology = CMOS018,
                 bridge_distribution: ResistanceDistribution | None = None,
                 open_distribution: ResistanceDistribution | None = None,
                 extractor: IfaExtractor | None = None) -> None:
        self.spec = spec if spec is not None else PopulationSpec()
        self.geometry = geometry
        self.tech = tech
        self.bridge_distribution = (bridge_distribution
                                    or default_bridge_distribution())
        self.open_distribution = open_distribution or default_open_distribution()
        self.extractor = (extractor if extractor is not None
                          else IfaExtractor(geometry))

    # ------------------------------------------------------------------
    def iter_chips(self):
        """Yield the lot one chip at a time, in legacy RNG order.

        The draw sequence (per-instance Poisson count, then per-defect
        kind/site/resistance) is exactly :meth:`generate`'s, so a
        streaming consumer sees the identical lot without holding it in
        memory -- the equivalence oracle for the sharded engine's
        ``scheme="legacy"`` path.
        """
        rng = np.random.default_rng(self.spec.seed)
        lam = self.spec.density.defects_per_chip(self.geometry.array_area_um2())
        for chip_id in range(self.spec.n_devices):
            chip = VeqtorChip(chip_id)
            for instance in range(VeqtorChip.N_INSTANCES):
                count = int(rng.poisson(lam))
                for _ in range(count):
                    chip.add_defect(instance, self._draw_defect(rng))
            yield chip

    def generate(self) -> list[VeqtorChip]:
        """Draw the lot.

        Defect count per instance ~ Poisson(area x D0); every defect is
        a bridge with probability ``bridge_fraction`` else an open, with
        site/strength from the extractor and R from the fab distribution.
        """
        return list(self.iter_chips())

    def _draw_defect(self, rng: np.random.Generator):
        if rng.random() < self.spec.density.bridge_fraction:
            return self.extractor.sample_bridges(
                1, rng,
                resistance_sampler=self.bridge_distribution.sample_one)[0]
        return self.extractor.sample_opens(
            1, rng, resistance_sampler=self.open_distribution.sample_one)[0]

    # ------------------------------------------------------------------
    def expected_defective_fraction(self) -> float:
        """1 - yield of the whole 4-instance chip (sanity anchor)."""
        per_instance = self.spec.density.yield_fraction(
            self.geometry.array_area_um2())
        return 1.0 - per_instance ** VeqtorChip.N_INSTANCES
