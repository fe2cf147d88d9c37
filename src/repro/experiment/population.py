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
from repro.defects.models import SITE_CODE, DefectKind
from repro.ifa.extraction import DefectFill, IfaExtractor
from repro.memory.geometry import VEQTOR4_INSTANCE, MemoryGeometry
from repro.experiment.veqtor import VeqtorChip

#: Instances whose Poisson counts :meth:`PopulationGenerator.generate`
#: draws in one call (about one defect-free run at the default density).
POISSON_BLOCK = 64


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
        """Yield the lot one chip at a time, one scalar draw at a time.

        Per instance a Poisson count, then per defect its kind, site and
        attributes (:meth:`_draw_defect`): the draw sequence
        :meth:`generate` batches, so this is its oracle, and the
        sharded engine's ``scheme="legacy"`` path streams the lot from
        it without holding it in memory.
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

        The generator calls are :meth:`iter_chips`'s, in its order, so
        the lot is ``==`` to ``list(iter_chips())``.  The Poisson counts
        come in blocks of :data:`POISSON_BLOCK`: a block that holds a
        non-zero count is redrawn from its saved generator state up to
        that count (``poisson(lam, size=k)`` consumes the stream as
        ``k`` scalar calls do), and that instance's defects follow.
        Every defect is drawn into one
        :class:`~repro.ifa.extraction.DefectFill`, and only the drawn
        defects are materialised as :class:`~repro.defects.models.Defect`.
        """
        rng = np.random.default_rng(self.spec.seed)
        lam = self.spec.density.defects_per_chip(self.geometry.array_area_um2())
        bit_generator = rng.bit_generator
        n_instances = self.spec.n_devices * VeqtorChip.N_INSTANCES
        fill = DefectFill(self.geometry.bits)
        owners: list[int] = []
        instance = 0
        while instance < n_instances:
            state = bit_generator.state
            counts = rng.poisson(lam, min(POISSON_BLOCK,
                                          n_instances - instance))
            hits = np.flatnonzero(counts)
            if hits.size == 0:
                instance += counts.size
                continue
            k = int(hits[0])
            bit_generator.state = state
            rng.poisson(lam, k + 1)
            instance += k
            for _ in range(int(counts[k])):
                owners.append(instance)
                self._fill_defect(fill, rng)
            instance += 1
        chips = [VeqtorChip(chip_id) for chip_id in range(self.spec.n_devices)]
        for owner, defect in zip(owners, fill.arrays().defects()):
            chip, slot = divmod(owner, VeqtorChip.N_INSTANCES)
            chips[chip].defects[slot].append(defect)
        return chips

    def _fill_defect(self, fill: DefectFill, rng: np.random.Generator) -> None:
        """Draw one defect into ``fill``, as :meth:`_draw_defect` does."""
        if rng.random() < self.spec.density.bridge_fraction:
            kind, sampler = DefectKind.BRIDGE, self.bridge_distribution
        else:
            kind, sampler = DefectKind.OPEN, self.open_distribution
        table = self.extractor.draw_table(kind)
        fill.draw((SITE_CODE[table.sites[table.choice.draw_one(rng)]],), rng,
                  sampler.sample_one)

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
