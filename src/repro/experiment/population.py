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

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.defects.distribution import (
    DefectDensity,
    ResistanceDistribution,
    default_bridge_distribution,
    default_open_distribution,
)
from repro.defects.models import SITE_CODE, DefectArrays, DefectKind
from repro.experiment.veqtor import VeqtorChip
from repro.ifa.extraction import DefectFill, IfaExtractor
from repro.memory.geometry import VEQTOR4_INSTANCE, MemoryGeometry

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
        bridge_distribution / open_distribution: Fab R distributions.
        extractor: IFA site extractor (supplies site classes/strengths).
    """

    def __init__(self, spec: PopulationSpec | None = None,
                 geometry: MemoryGeometry = VEQTOR4_INSTANCE,
                 bridge_distribution: ResistanceDistribution | None = None,
                 open_distribution: ResistanceDistribution | None = None,
                 extractor: IfaExtractor | None = None) -> None:
        self.spec = spec if spec is not None else PopulationSpec()
        self.geometry = geometry
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

    def generate(self) -> DefectBlock:
        """Draw the lot as one :class:`DefectBlock`.

        Defect count per instance ~ Poisson(area x D0); every defect is
        a bridge with probability ``bridge_fraction`` else an open, with
        site/strength from the extractor and R from the fab distribution.

        The generator calls are :meth:`iter_chips`'s, in its order, so
        the block's parts are the oracle's defective chips
        (``lot.chip(k)`` is the ``k``-th of them).  The Poisson counts
        come in blocks of :data:`POISSON_BLOCK`: a block that holds a
        non-zero count is redrawn from its saved generator state up to
        that count (``poisson(lam, size=k)`` consumes the stream as
        ``k`` scalar calls do), and that instance's defects follow.
        Every defect is drawn into one
        :class:`~repro.ifa.extraction.DefectFill`; no chip and no
        :class:`~repro.defects.models.Defect` is built.
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
        chip_ids, instances = np.divmod(np.array(owners, dtype=np.intp),
                                        VeqtorChip.N_INSTANCES)
        chip_starts = np.flatnonzero(np.diff(chip_ids, prepend=-1))
        return DefectBlock(start=0, devices=self.spec.n_devices,
                           rows=chip_ids[chip_starts], chip_starts=chip_starts,
                           instances=instances, defects=fill.arrays())

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


@dataclass(frozen=True)
class DefectBlock:
    """A run of devices as flat arrays of its defective parts' defects.

    The one lot representation from draw to classification: the
    Figure 11 lot (:meth:`PopulationGenerator.generate`), each RNG
    block of the streaming engine and each shard they join into.
    Clean parts are only counted.

    Attributes:
        start: Device id of the block's first device.
        devices: Devices the block covers, clean ones included.
        rows: Block-relative row of each defective part, ascending.
        chip_starts: Offset into ``defects`` of each defective part's
            first defect (a part's defects are contiguous).
        instances: Core instance of each defect.
        defects: Every defect of the block, part by part, instance by
            instance, in draw order.
    """

    start: int
    devices: int
    rows: np.ndarray
    chip_starts: np.ndarray
    instances: np.ndarray
    defects: DefectArrays

    @classmethod
    def from_chips(cls, start: int,
                   chips: Sequence[VeqtorChip]) -> DefectBlock:
        """Flatten ``chips``, devices ``start`` on, into a block."""
        rows = [k for k, chip in enumerate(chips) if chip.is_defective]
        instances = [instance for k in rows
                     for instance, defects in enumerate(chips[k].defects)
                     for _ in defects]
        sizes = np.array([len(chips[k].all_defects) for k in rows],
                         dtype=np.intp)
        return cls(
            start=start, devices=len(chips),
            rows=np.array(rows, dtype=np.intp),
            chip_starts=np.cumsum(sizes) - sizes,
            instances=np.array(instances, dtype=np.intp),
            defects=DefectArrays.from_defects(
                [d for k in rows for d in chips[k].all_defects]))

    @classmethod
    def join(cls, start: int, devices: int,
             blocks: list[DefectBlock]) -> DefectBlock:
        """One block of ``devices`` devices from ``start``, holding
        ``blocks``' parts in order.

        Rows become relative to ``start`` and each block's
        ``chip_starts`` shift by the defects before it, so part ``k`` of
        the result is the ``k``-th part of the concatenation.
        """
        sizes = [len(block.defects) for block in blocks]
        offsets = np.cumsum(sizes) - sizes
        return cls(
            start=start, devices=devices,
            rows=np.concatenate([block.rows + (block.start - start)
                                 for block in blocks]),
            chip_starts=np.concatenate([
                block.chip_starts + offset
                for block, offset in zip(blocks, offsets.tolist())]),
            instances=np.concatenate([block.instances for block in blocks]),
            defects=DefectArrays.concatenate(
                [block.defects for block in blocks]))

    def chip(self, k: int) -> VeqtorChip:
        """Materialise defective part ``k`` as a :class:`VeqtorChip`."""
        first = int(self.chip_starts[k])
        stop = (int(self.chip_starts[k + 1]) if k + 1 < len(self.rows)
                else len(self.defects))
        chip = VeqtorChip(self.start + int(self.rows[k]))
        for d in range(first, stop):
            chip.add_defect(int(self.instances[d]), self.defects.defect(d))
        return chip
