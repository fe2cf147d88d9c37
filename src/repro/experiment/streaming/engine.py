"""Worker-side core of the streaming experiment: generation + map step.

This module runs inside pool worker processes (it is listed in the
code-lint pack's worker modules), so it never touches an event bus:
every fact ships back to the parent inside the
:class:`~repro.runner.outcome.UnitOutcome` payload.

:class:`StreamingExperiment` is the lot the :mod:`repro.perf` pool
runs -- it pickles small (lazy caches are dropped) and carries the
optional worker-fault ``injector`` the pool probes.  The serial
runner, every pool worker and the supervisor's in-parent fallback each
build a :class:`ShardEvaluator` over it.

Generation is vectorised per RNG block: one ``poisson`` call for the
whole block's defect-count matrix, one uniform draw for defect kinds,
and one batched attribute-per-array defect draw
(:meth:`~repro.ifa.extraction.IfaExtractor.sample_batch`).  Blocks
stay in arrays (:class:`~repro.experiment.population.DefectBlock`, the
Figure 11 lot's type too) and a shard's blocks are joined into one, so
a shard is one
:meth:`~repro.experiment.classify.StressClassifier.classify` call: one
elementwise kernel call per (site class, condition) over all of the
shard's defects and a ``bincount`` of the parts' fail-bit words into
the accumulator; no chip materialises unless diagnosed.  The unit
deadline is still checked after every block's draw.
``scheme="legacy"`` streams the original single-stream chips, flattens
them one block-sized slice at a time and classifies them the same way
(its single shard is the whole lot).

Exact-path equivalence: tests/experiment/test_streaming.py
(``scheme="legacy"`` reduces the original single-stream draw order to
a payload byte-identical to the materialised pipeline's; the kernel
path's payload equals a fold of the per-chip oracle
:meth:`~repro.experiment.classify.StressClassifier.classify_chip`).
"""

from __future__ import annotations

import time
from collections.abc import Callable
from functools import partial
from itertools import islice
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.circuit.technology import CMOS018
from repro.defects.distribution import (
    DefectDensity,
    default_bridge_distribution,
    default_open_distribution,
)
from repro.defects.models import DefectArrays, DefectKind
from repro.experiment.classify import ExperimentAccumulator, StressClassifier
from repro.experiment.population import (
    DefectBlock,
    PopulationGenerator,
    PopulationSpec,
)
from repro.experiment.streaming.plan import (
    DEFAULT_BLOCK_DEVICES,
    ShardPlan,
    ShardUnit,
)
from repro.experiment.veqtor import VeqtorChip
from repro.ifa.extraction import IfaExtractor
from repro.memory.geometry import VEQTOR4_INSTANCE
from repro.runner.outcome import (
    UnitDeadlineExceeded,
    UnitOutcome,
    check_unit_deadline,
)

if TYPE_CHECKING:
    from repro.experiment.diagnosis import LotDiagnostician

#: Names of the lazily-built caches dropped from pickles: each worker
#: rebuilds them deterministically, keeping the pool-init payload small
#: (the classifier's oracle bench, once built, is megabytes).
_LAZY_SLOTS = ("_classifier", "_generator", "_extractor", "_diagnostician")


class StreamingExperiment:
    """The sharded million-device experiment.

    Args:
        n_devices: Population size (the paper: ~11k; this engine:
            10^6 -- 10^7).
        seed: Root RNG seed.
        density: Defect density / kind mix (defaults to the
            qualification-lot :class:`PopulationSpec` density).
        shard_devices: Devices per dispatch/checkpoint unit.
        scheme: ``"spawn"`` (sharded block substreams) or ``"legacy"``
            (single-stream, single-shard; byte-identical to
            :class:`~repro.experiment.population.PopulationGenerator`).
        injector: Optional :class:`~repro.runner.chaos.FaultInjector`
            whose worker faults the pool probes once per shard
            dispatch (see :func:`~repro.perf.executor.
            probe_worker_faults`) and whose ``io.*`` sites the
            runner's checkpoint writes probe; it never touches
            classification.
        diagnose: Run bitmap diagnosis on interesting devices and
            accumulate hint histograms.

    Every lot is of Veqtor4 instances in ``CMOS018``, with the default
    fab R distributions, drawn in RNG blocks of
    ``DEFAULT_BLOCK_DEVICES`` devices (the vectorised batch; read at
    construction and kept in ``plan.block_devices``, part of the lot's
    identity).
    """

    def __init__(self, n_devices: int = 1_000_000, seed: int = 1105,
                 density: DefectDensity | None = None,
                 shard_devices: int | None = None,
                 scheme: str = "spawn",
                 injector: Any = None,
                 diagnose: bool = False) -> None:
        plan_kwargs: dict[str, Any] = {}
        if shard_devices is not None:
            plan_kwargs["shard_devices"] = shard_devices
        self.plan = ShardPlan(n_devices=n_devices, seed=seed, scheme=scheme,
                              block_devices=DEFAULT_BLOCK_DEVICES,
                              **plan_kwargs)
        self.density = (density if density is not None
                        else PopulationSpec().density)
        self.geometry = VEQTOR4_INSTANCE
        self.tech = CMOS018
        self.diagnose = diagnose
        self.bridge_distribution = default_bridge_distribution()
        self.open_distribution = default_open_distribution()
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
        return self.classifier.behavior

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
                self.spec, geometry=self.geometry,
                bridge_distribution=self.bridge_distribution,
                open_distribution=self.open_distribution,
                extractor=self.extractor)
        return self._generator

    @property
    def diagnostician(self) -> LotDiagnostician:
        """The (cached) bitmap diagnostician."""
        if self._diagnostician is None:
            from repro.experiment.diagnosis import LotDiagnostician

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
        # Column by column: numpy's ``sum(axis=1)`` over four-wide rows
        # costs ~4x as much.
        per_chip = sum(counts.T)
        total = int(per_chip.sum())
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
        defects = DefectArrays.interleave(is_bridge, bridges, opens)
        rows = np.flatnonzero(per_chip)
        sizes = per_chip[rows]
        instances = np.repeat(
            np.tile(np.arange(VeqtorChip.N_INSTANCES), n), counts.ravel())
        return DefectBlock(start=start, devices=n, rows=rows,
                           chip_starts=np.cumsum(sizes) - sizes,
                           instances=instances, defects=defects)

    def shard_lot(self, shard: ShardUnit,
                  after_block: Callable[[int], None]) -> DefectBlock | None:
        """Draw the shard's defective parts as one block (``None``:
        every part is clean).

        Under ``spawn`` each RNG block is drawn by :meth:`block_defects`;
        under ``legacy`` (one shard, the whole lot) each block-sized
        slice of the single-stream chips
        (:meth:`~repro.experiment.population.PopulationGenerator.
        iter_chips`) is flattened.  The blocks are joined into one, so
        a shard is classified in one call.  ``after_block(n)`` is called
        once ``n`` blocks are drawn, so a deadline can stop the shard
        between blocks, before the kernel runs.
        """
        chips = (self.generator.iter_chips()
                 if self.plan.scheme == "legacy" else None)
        drawn: list[DefectBlock] = []
        for done, (block_index, start, stop) in enumerate(
                self.plan.blocks_of(shard), 1):
            block = (self.block_defects(block_index, start, stop)
                     if chips is None else DefectBlock.from_chips(
                         start, list(islice(chips, stop - start))))
            if block is not None:
                drawn.append(block)
            after_block(done)
        if not drawn:
            return None
        return DefectBlock.join(shard.start, shard.devices, drawn)


class ShardEvaluator:
    """Evaluate shard units into accumulator payloads.

    The streaming counterpart of
    :class:`~repro.runner.evaluate.UnitEvaluator`: one lives in the
    serial runner, one per worker process in the pool, and the parent
    supervisor builds one for poison fallbacks.  ``evaluate`` returns a
    :class:`~repro.runner.outcome.UnitOutcome` whose ``record`` is the
    shard's :meth:`ExperimentAccumulator.as_payload` dict.

    Args:
        engine: The :class:`StreamingExperiment`.
        unit_deadline: Optional wall-clock budget per shard (seconds),
            read off ``time.monotonic`` (the ``clock`` attribute).
    """

    def __init__(self, engine: StreamingExperiment,
                 unit_deadline: float | None = None) -> None:
        check_unit_deadline(unit_deadline)
        self.engine = engine
        self.unit_deadline = unit_deadline
        self.clock: Callable[[], float] = time.monotonic

    def evaluate(self, shard: ShardUnit) -> UnitOutcome:
        """Generate, classify and accumulate one shard.

        Draws the shard's RNG blocks in plan order, checking the
        deadline after each, then classifies the joined block in one
        call, diagnosing its interesting parts if asked.

        Raises:
            UnitDeadlineExceeded: the shard overran ``unit_deadline``
                (named with the number of blocks done).
        """
        engine = self.engine
        started = self.clock()
        after_block = partial(self._check_deadline, shard, started)
        lot = engine.shard_lot(shard, after_block)
        if lot is None:
            acc = ExperimentAccumulator(devices=shard.devices)
        else:
            acc = engine.classifier.classify(
                lot, engine.diagnostician if engine.diagnose else None)
        payload: Any = acc.as_payload()
        return UnitOutcome(index=shard.index, unit_id=shard.unit_id,
                           record=payload)

    def _check_deadline(self, shard: ShardUnit, started: float,
                        blocks: int) -> None:
        if (self.unit_deadline is not None
                and self.clock() - started > self.unit_deadline):
            raise UnitDeadlineExceeded(
                f"{shard} exceeded its {self.unit_deadline:g}s "
                f"budget after {blocks} blocks; completed shards are "
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
