"""Worker-side core of the streaming experiment: generation + map step.

This module runs inside pool worker processes (it is listed in the
code-lint pack's worker modules), so it never touches an event bus:
every fact ships back to the parent inside the
:class:`~repro.runner.evaluate.UnitOutcome` payload.

:class:`StreamingExperiment` is the campaign-shaped object the
:mod:`repro.perf` pool runs -- it pickles small (lazy caches are
dropped), carries the optional worker-fault ``injector`` the pool
probes, and exposes a ``unit_evaluator`` factory from which the
serial runner, every pool worker and the supervisor's in-parent
fallback build their :class:`ShardEvaluator`.

Generation is vectorised per RNG block: one ``poisson`` call for the
whole block's defect-count matrix, one uniform draw for defect kinds,
and one batched attribute-per-array defect draw
(:meth:`~repro.ifa.extraction.IfaExtractor.sample_batch`).  The block
stays in arrays (:class:`DefectBlock`): classification is one
elementwise kernel call per (site class, condition)
(:meth:`~repro.experiment.classify.StressClassifier.fail_bits`) and a
``bincount`` of the parts' fail-bit words into the accumulator, so no
chip materialises unless diagnosed.  ``scheme="legacy"`` streams the
original single-stream chips and classifies them through the same
kernel, one block-sized slice at a time.

Exact-path equivalence: tests/experiment/test_streaming.py
(``scheme="legacy"`` reduces the original single-stream draw order to
a payload byte-identical to the materialised pipeline's; the kernel
path's payload equals a fold of the per-chip oracle
:meth:`~repro.experiment.classify.StressClassifier.classify_chip`).
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from itertools import islice
from typing import Any

import numpy as np

from repro.circuit.technology import CMOS018, Technology
from repro.defects.distribution import (
    DefectDensity,
    ResistanceDistribution,
    default_bridge_distribution,
    default_open_distribution,
)
from repro.defects.models import DefectArrays, DefectKind
from repro.experiment.classify import (
    DeviceRecord,
    StressClassifier,
    decode_fail_bits,
)
from repro.experiment.diagnosis import LotDiagnostician
from repro.experiment.population import PopulationGenerator, PopulationSpec
from repro.experiment.streaming.accumulator import ExperimentAccumulator
from repro.experiment.streaming.plan import ShardPlan, ShardUnit
from repro.experiment.veqtor import VeqtorChip
from repro.ifa.extraction import IfaExtractor
from repro.memory.geometry import VEQTOR4_INSTANCE, MemoryGeometry
from repro.runner.evaluate import (
    UnitDeadlineExceeded,
    UnitOutcome,
    check_unit_deadline,
)

#: Names of the lazily-built caches dropped from pickles: each worker
#: rebuilds them deterministically, keeping the pool-init payload small
#: (the classifier's test bench alone is megabytes once warmed).
_LAZY_SLOTS = ("_classifier", "_generator", "_extractor", "_diagnostician")


class StreamingExperiment:
    """The sharded million-device experiment (campaign-shaped).

    Args:
        n_devices: Population size (the paper: ~11k; this engine:
            10^6 -- 10^7).
        seed: Root RNG seed.
        density: Defect density / kind mix (defaults to the
            qualification-lot :class:`PopulationSpec` density).
        shard_devices: Devices per dispatch/checkpoint unit.
        block_devices: Devices per RNG block (the vectorised batch).
        scheme: ``"spawn"`` (sharded block substreams) or ``"legacy"``
            (single-stream, single-shard; byte-identical to
            :class:`~repro.experiment.population.PopulationGenerator`).
        geometry: Per-instance memory organisation.
        tech: Technology corner.
        injector: Optional :class:`~repro.runner.chaos.FaultInjector`
            whose worker faults the pool probes once per shard
            dispatch (see :func:`~repro.perf.executor.
            probe_worker_faults`) and whose ``io.*`` sites the
            runner's checkpoint writes probe; it never touches
            classification.
        diagnose: Run bitmap diagnosis on interesting devices and
            accumulate hint histograms.
        bridge_distribution / open_distribution: Fab R distributions.
    """

    def __init__(self, n_devices: int = 1_000_000, seed: int = 1105,
                 density: DefectDensity | None = None,
                 shard_devices: int | None = None,
                 block_devices: int | None = None,
                 scheme: str = "spawn",
                 geometry: MemoryGeometry = VEQTOR4_INSTANCE,
                 tech: Technology = CMOS018,
                 injector: Any = None,
                 diagnose: bool = False,
                 bridge_distribution: ResistanceDistribution | None = None,
                 open_distribution: ResistanceDistribution | None = None,
                 ) -> None:
        plan_kwargs: dict[str, Any] = {}
        if shard_devices is not None:
            plan_kwargs["shard_devices"] = shard_devices
        if block_devices is not None:
            plan_kwargs["block_devices"] = block_devices
        self.plan = ShardPlan(n_devices=n_devices, seed=seed,
                              scheme=scheme, **plan_kwargs)
        self.density = (density if density is not None
                        else PopulationSpec().density)
        self.geometry = geometry
        self.tech = tech
        self.diagnose = diagnose
        self.bridge_distribution = (bridge_distribution
                                    or default_bridge_distribution())
        self.open_distribution = (open_distribution
                                  or default_open_distribution())
        self.injector = injector
        self._classifier: StressClassifier | None = None
        self._generator: PopulationGenerator | None = None
        self._extractor: IfaExtractor | None = None
        self._diagnostician: LotDiagnostician | None = None

    # ------------------------------------------------------------------
    # Pickling: ship configuration, rebuild caches per process
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict[str, Any]:
        state = dict(self.__dict__)
        for name in _LAZY_SLOTS:
            state[name] = None
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)

    # ------------------------------------------------------------------
    # Lazily-built collaborators
    # ------------------------------------------------------------------
    @property
    def spec(self) -> PopulationSpec:
        """The equivalent legacy population spec."""
        return PopulationSpec(n_devices=self.plan.n_devices,
                              density=self.density, seed=self.plan.seed)

    @property
    def classifier(self) -> StressClassifier:
        """The (cached) screen-then-stress classifier."""
        if self._classifier is None:
            self._classifier = StressClassifier(tech=self.tech,
                                                geometry=self.geometry)
        return self._classifier

    @property
    def behavior(self) -> Any:
        """The classifier's behaviour model (the stock one of ``tech``)."""
        return self.classifier.bench.tester.behavior

    @property
    def extractor(self) -> IfaExtractor:
        """The (cached) IFA site extractor."""
        if self._extractor is None:
            self._extractor = IfaExtractor(self.geometry)
        return self._extractor

    @property
    def generator(self) -> PopulationGenerator:
        """The (cached) legacy-scheme population generator."""
        if self._generator is None:
            self._generator = PopulationGenerator(
                self.spec, geometry=self.geometry, tech=self.tech,
                bridge_distribution=self.bridge_distribution,
                open_distribution=self.open_distribution,
                extractor=self.extractor)
        return self._generator

    @property
    def diagnostician(self) -> LotDiagnostician:
        """The (cached) bitmap diagnostician."""
        if self._diagnostician is None:
            self._diagnostician = LotDiagnostician(tech=self.tech)
        return self._diagnostician

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def meta(self) -> dict[str, Any]:
        """The experiment fingerprint stored in checkpoints/journals.

        Execution knobs (workers, rebuild budget) are deliberately absent
        -- they change how the experiment runs, never what it computes
        -- but ``shard_devices`` is present: the checkpoint keys on
        shard unit ids, so resuming requires the same shard layout
        (results do not; see the shard-invariance tests).
        """
        return {
            "experiment": "streaming-veqtor4",
            "devices": self.plan.n_devices,
            "seed": self.plan.seed,
            "scheme": self.plan.scheme,
            "shard_devices": self.plan.shard_devices,
            "block_devices": self.plan.block_devices,
            "d0_per_cm2": self.density.d0_per_cm2,
            "bridge_fraction": self.density.bridge_fraction,
            "diagnose": self.diagnose,
        }

    # ------------------------------------------------------------------
    # Streaming generation
    # ------------------------------------------------------------------
    def iter_shard_chips(self, shard: ShardUnit) -> Iterator[VeqtorChip]:
        """Yield the shard's chips without materializing the shard.

        Under ``spawn``, only *defective* chips are yielded (clean
        devices are implied by ``shard.devices``); under ``legacy``
        every chip streams through in the original draw order.  This
        is the per-chip view: :meth:`classified_blocks` reads
        :meth:`block_defects` instead and builds no chip at all.
        """
        if self.plan.scheme == "legacy":
            yield from self.generator.iter_chips()
            return
        for block_index, start, stop in self.plan.blocks_of(shard):
            block = self.block_defects(block_index, start, stop)
            if block is not None:
                yield from (block.chip(k) for k in range(len(block.rows)))

    def block_defects(self, block_index: int, start: int,
                      stop: int) -> DefectBlock | None:
        """Vectorised draw of one RNG block's defects (``None``: clean).

        The block substream consumes in a fixed order -- Poisson count
        matrix, kind uniforms, batched bridge draws, batched open draws
        -- so the block's defects are a pure function of
        ``(seed, block_index)`` regardless of shard layout or worker
        count.
        """
        seq = np.random.SeedSequence(entropy=self.plan.seed,
                                     spawn_key=(block_index,))
        rng = np.random.default_rng(seq)
        lam = self.density.defects_per_chip(self.geometry.array_area_um2())
        n = stop - start
        counts = rng.poisson(lam, size=(n, VeqtorChip.N_INSTANCES))
        total = int(counts.sum())
        if total == 0:
            return None
        is_bridge = rng.random(total) < self.density.bridge_fraction
        n_bridges = int(is_bridge.sum())
        bridges = self.extractor.sample_batch(
            n_bridges, rng, DefectKind.BRIDGE,
            resistance_distribution=self.bridge_distribution)
        opens = self.extractor.sample_batch(
            total - n_bridges, rng, DefectKind.OPEN,
            resistance_distribution=self.open_distribution)
        # Defects run chip by chip, instance by instance (the count
        # matrix in row-major order); the k-th bridge and the k-th open
        # land on the k-th True / False of ``is_bridge``.
        defects = DefectArrays(*(
            _interleave(is_bridge, getattr(bridges, name),
                        getattr(opens, name))
            for name in ("codes", "strengths", "resistances", "cells",
                         "polarities")))
        per_chip = counts.sum(axis=1)
        rows = np.flatnonzero(per_chip)
        sizes = per_chip[rows]
        instances = np.repeat(
            np.tile(np.arange(VeqtorChip.N_INSTANCES), n), counts.ravel())
        return DefectBlock(start=start, rows=rows,
                           chip_starts=np.cumsum(sizes) - sizes,
                           instances=instances, defects=defects)

    def classified_blocks(self, shard: ShardUnit,
                          ) -> Iterator[tuple[np.ndarray,
                                              Callable[[int], VeqtorChip]]
                                        | None]:
        """Classify the shard one RNG block at a time.

        Yields, per block, ``None`` when it has no defective part, else
        the fail-bit words of its defective parts
        (:meth:`~repro.experiment.classify.StressClassifier.fail_bits`)
        and a function materialising part ``k`` as a chip.  Under
        ``legacy`` a "block" is the next block-sized slice of the
        single-stream chips.
        """
        classifier = self.classifier
        if self.plan.scheme == "legacy":
            chips = self.iter_shard_chips(shard)
            for _, start, stop in self.plan.blocks_of(shard):
                defective = [chip for chip in islice(chips, stop - start)
                             if chip.is_defective]
                yield ((classifier.chip_fail_bits(defective),
                        defective.__getitem__) if defective else None)
            return
        for block_index, start, stop in self.plan.blocks_of(shard):
            block = self.block_defects(block_index, start, stop)
            yield (None if block is None else
                   (classifier.fail_bits(block.defects, block.chip_starts),
                    block.chip))

    # ------------------------------------------------------------------
    # Executor integration
    # ------------------------------------------------------------------
    def unit_evaluator(self, unit_deadline: float | None = None,
                       clock: Callable[[], float] = time.monotonic,
                       ) -> "ShardEvaluator":
        """The evaluator factory the runner and the pool build from."""
        return ShardEvaluator(self, unit_deadline=unit_deadline,
                              clock=clock)


class ShardEvaluator:
    """Evaluate shard units into accumulator payloads.

    The streaming counterpart of
    :class:`~repro.runner.evaluate.UnitEvaluator`: one lives in the
    serial runner, one per worker process in the pool, and the parent
    supervisor builds one for poison fallbacks.  ``evaluate`` returns a
    :class:`~repro.runner.evaluate.UnitOutcome` whose ``record`` is the
    shard's :meth:`ExperimentAccumulator.as_payload` dict.

    Args:
        campaign: The :class:`StreamingExperiment`.
        unit_deadline: Optional wall-clock budget per shard (seconds).
        clock: Injectable monotonic clock for deadlines.
    """

    def __init__(self, campaign: StreamingExperiment,
                 unit_deadline: float | None = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        check_unit_deadline(unit_deadline)
        self.campaign = campaign
        self.unit_deadline = unit_deadline
        self.clock = clock

    def evaluate(self, shard: ShardUnit) -> UnitOutcome:
        """Generate, classify and accumulate one shard.

        Raises:
            UnitDeadlineExceeded: the shard overran ``unit_deadline``.
        """
        engine = self.campaign
        started = self.clock()
        acc = ExperimentAccumulator(devices=shard.devices)
        diagnostician = engine.diagnostician if engine.diagnose else None
        for done, block in enumerate(engine.classified_blocks(shard), 1):
            if block is not None:
                bits, chip = block
                acc.observe_fail_bits(bits)
                if diagnostician is not None:
                    _diagnose_block(diagnostician, acc, bits, chip)
            self._check_deadline(shard, started, f"{done} blocks")
        payload: Any = acc.as_payload()
        return UnitOutcome(index=shard.index, unit_id=shard.unit_id,
                           record=payload)

    def _check_deadline(self, shard: ShardUnit, started: float,
                        progress: str) -> None:
        if (self.unit_deadline is not None
                and self.clock() - started > self.unit_deadline):
            raise UnitDeadlineExceeded(
                f"{shard} exceeded its {self.unit_deadline:g}s "
                f"budget after {progress}; completed shards are "
                "checkpointed -- fix the stall and resume")

    def poison_outcome(self, shard: ShardUnit, attempts: int,
                       error: str) -> UnitOutcome:
        """Synthesise the quarantine outcome of a poison shard.

        Called by the pool supervisor's last line of defence: the
        shard's devices are counted as ``errors`` (claiming nothing
        about their classification) and the ledger carries one
        whole-shard entry with the sentinel ``site_index == -1``.
        """
        acc = ExperimentAccumulator(devices=shard.devices,
                                    errors=shard.devices)
        payload: Any = acc.as_payload()
        entry = {
            "unit_id": shard.unit_id,
            "site_index": -1,
            "defect": "<entire shard>",
            "attempts": attempts,
            "error": error,
        }
        return UnitOutcome(index=shard.index, unit_id=shard.unit_id,
                           record=payload, quarantine=[entry])


@dataclass(frozen=True)
class DefectBlock:
    """One RNG block's defective parts as flat defect arrays.

    Attributes:
        start: Device id of the block's first device.
        rows: Block-relative row of each defective part, ascending.
        chip_starts: Offset into ``defects`` of each defective part's
            first defect (a part's defects are contiguous).
        instances: Core instance of each defect.
        defects: Every defect of the block, part by part, instance by
            instance, in draw order.
    """

    start: int
    rows: np.ndarray
    chip_starts: np.ndarray
    instances: np.ndarray
    defects: DefectArrays

    def chip(self, k: int) -> VeqtorChip:
        """Materialise defective part ``k`` as a :class:`VeqtorChip`."""
        first = int(self.chip_starts[k])
        stop = (int(self.chip_starts[k + 1]) if k + 1 < len(self.rows)
                else len(self.defects))
        chip = VeqtorChip(self.start + int(self.rows[k]))
        for d in range(first, stop):
            chip.add_defect(int(self.instances[d]), self.defects.defect(d))
        return chip


def _interleave(mask: np.ndarray, when_true: np.ndarray,
                when_false: np.ndarray) -> np.ndarray:
    """Merge two arrays into ``mask``'s True / False slots, in order."""
    out = np.empty(mask.shape, dtype=np.result_type(when_true, when_false))
    out[mask] = when_true
    out[~mask] = when_false
    return out


def _diagnose_block(diagnostician: LotDiagnostician,
                    acc: ExperimentAccumulator, bits: np.ndarray,
                    chip: Callable[[int], VeqtorChip]) -> None:
    """Diagnose a block's interesting parts, the only ones materialised."""
    for k, word in enumerate(bits.tolist()):
        failed_standard, failed_stress = decode_fail_bits(word)
        if failed_standard or not failed_stress:
            continue
        record = DeviceRecord(chip(k), False, failed_stress)
        acc.observe_hints(diagnostician.diagnose_device(record).hints)
