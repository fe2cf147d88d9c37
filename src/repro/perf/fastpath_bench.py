"""``fastpath`` benchmark suite: invocation reduction measured, not asserted.

Rows of ``BENCH_fastpath.json`` (harness, schema and floors:
:mod:`repro.perf.bench`).  Three comparisons, each verified identical
on every run before any number is reported:

* **campaign** -- the paper's Table-1 bridge sweep (4 resistances x
  the 5 production stress conditions) evaluated by the exact per-site
  :class:`~repro.runner.evaluate.UnitEvaluator` vs the serial
  campaign's grid evaluator (:mod:`repro.perf.batch`, the ``batch``
  row), with the behaviour model wrapped in a
  :class:`~repro.perf.counting.CountingBehaviorModel` so the
  reduction figure is a deterministic call count, not a timing;
* **shmoo** -- a paper-sized (Vdd, period) grid (Figures 3/4: 15
  voltages x 24 periods) filled by
  :meth:`~repro.tester.shmoo.ShmooRunner.run_exhaustive` (the ``exact``
  row) vs the boundary trace of :meth:`~repro.tester.shmoo.ShmooRunner.run`
  (the ``boundary`` row), counting tester invocations;
* **adjacency** -- the critical-area pair search on the Veqtor4
  layout window: the sort-and-sweep
  :func:`~repro.ifa.critical_area.find_adjacent_pairs` vs the pairwise
  scan :func:`~repro.ifa.critical_area.find_adjacent_pairs_exhaustive`,
  whose pair lists must be equal, order included;
* **draw** -- the test plan's 3000-defect Monte-Carlo draw (sites,
  strengths, cells, polarities, fab resistances): the cached site and
  resistance CDFs of :meth:`~repro.ifa.extraction.IfaExtractor.draw_table`
  and :meth:`~repro.defects.distribution.ResistanceDistribution.sample_one`
  vs the per-defect ``choice(p=...)`` oracles
  (:func:`~repro.ifa.extraction.sample_defects_reference`,
  :func:`~repro.defects.distribution.sample_resistances_reference`),
  whose defect lists must be equal.

The floors (``repro.perf.bench.FLOORS``) are the ones the fast paths
exist for: at least 5x fewer behaviour-model invocations on the Table-1
campaign, at least 3x fewer tester invocations on the shmoo, and at
least a 5x wall-clock speedup for the grid evaluator over exact (the
batch kernel exists to kill the per-site Python loop, which call counts
alone cannot see), and wall-clock floors on the adjacency and draw rows.
"""

from __future__ import annotations

import json
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass
from typing import Any

import numpy as np

from repro.circuit.technology import CMOS018
from repro.defects.behavior import DefectBehaviorModel
from repro.defects.distribution import (
    default_bridge_distribution,
    default_open_distribution,
    sample_resistances_reference,
)
from repro.defects.models import BridgeSite, Defect, DefectKind
from repro.ifa.critical_area import (
    find_adjacent_pairs,
    find_adjacent_pairs_exhaustive,
)
from repro.ifa.extraction import IfaExtractor, sample_defects_reference
from repro.ifa.flow import TABLE1_RESISTANCES, IfaCampaign
from repro.ifa.layout import SramLayout
from repro.march.library import get_test
from repro.memory.geometry import VEQTOR4_INSTANCE, MemoryGeometry
from repro.memory.sram import Sram
from repro.perf.batch import BatchEvaluator
from repro.perf.counting import CountingBehaviorModel
from repro.runner.campaign import CampaignRunner, SweepSpec
from repro.runner.evaluate import UnitEvaluator
from repro.stress import production_conditions
from repro.tester.ate import VirtualTester
from repro.tester.shmoo import (
    ShmooRunner,
    default_period_axis,
    default_voltage_axis,
)


@dataclass(frozen=True)
class FastpathBenchConfig:
    """Shape of the ``fastpath`` suite.

    Attributes:
        rows, columns, bits: Memory geometry of the campaign half.
        sites: Site-population size of the Table-1 sweep.
        seed: Campaign seed.
        shmoo_defect_resistance: Resistance of the Chip-1-style bridge
            whose shmoo is traced (the paper's Figure 4 device).
    """

    rows: int = 32
    columns: int = 4
    bits: int = 8
    sites: int = 2000
    seed: int = 2005
    shmoo_defect_resistance: float = 240e3

    @classmethod
    def quick(cls) -> "FastpathBenchConfig":
        """A seconds-scale configuration for CI smoke runs.

        Only the geometry and site population shrink; the shmoo grid
        stays paper-sized so the invocation-reduction floors still
        hold (the reductions are structural, not
        population-dependent).  The population cannot shrink
        arbitrarily, though: the batch kernel's fixed per-group numpy
        dispatch cost is population-independent, so a tiny population
        under-reports its wall-clock speedup and would trip the
        wall-clock floor spuriously.
        """
        return cls(rows=16, columns=2, bits=4, sites=400)


def _campaign_specs() -> list[SweepSpec]:
    """The paper's Table-1 sweep: 4 bridge resistances x 5 conditions."""
    conds = tuple(production_conditions(CMOS018).values())
    return [SweepSpec.of(DefectKind.BRIDGE, TABLE1_RESISTANCES, conds)]


def _counted_campaign(config: FastpathBenchConfig) -> IfaCampaign:
    """A fresh campaign whose behaviour model counts its calls."""
    geometry = MemoryGeometry(config.rows, config.columns, config.bits)
    campaign = IfaCampaign(geometry, CMOS018, n_sites=config.sites,
                           seed=config.seed)
    campaign.behavior = CountingBehaviorModel(campaign.behavior)
    return campaign


def _records_blob(records: list[Any]) -> str:
    """Canonical byte-comparison form of a record list."""
    return json.dumps([asdict(r) for r in records], sort_keys=True)


def _bench_campaign(config: FastpathBenchConfig) -> dict[str, Any]:
    """Time + count the Table-1 sweep exact vs the grid evaluator.

    Both rows time the bare evaluator over the same plan -- the
    per-site :class:`~repro.runner.evaluate.UnitEvaluator` the pool
    runs, and the :class:`~repro.perf.batch.BatchEvaluator` a serial
    campaign runs -- so runner bookkeeping weighs on neither.  The
    site population is sampled *before* the clock starts: both rows
    share the identical critical-area extraction, and on short
    configurations it would otherwise dominate every row and flatten
    the very evaluation-cost differences the benchmark exists to
    measure.
    """
    rows: dict[str, Any] = {}
    records: dict[str, str] = {}
    for row in ("exact", "batch"):
        campaign = _counted_campaign(config)
        campaign.bridge_population()  # warm extraction outside the clock
        plan = CampaignRunner(campaign).plan(_campaign_specs())
        evaluator = (UnitEvaluator(campaign) if row == "exact"
                     else BatchEvaluator(campaign, plan))
        started = time.perf_counter()
        result_records = [evaluator.evaluate(unit).record
                          for unit in plan]
        seconds = time.perf_counter() - started
        rows[row] = {
            "model_invocations": campaign.behavior.calls,
            "seconds": round(seconds, 6),
            "units": len(result_records),
        }
        records[row] = _records_blob(result_records)
    rows["batch"]["stats"] = evaluator.stats.as_dict()
    if records["batch"] != records["exact"]:
        raise RuntimeError(
            "grid evaluator records diverged from exact -- the "
            "equivalence contract is broken")
    rows["invocation_reduction"] = round(
        rows["exact"]["model_invocations"]
        / max(1, rows["batch"]["model_invocations"]), 2)
    rows["speedup_batch"] = (
        round(rows["exact"]["seconds"] / rows["batch"]["seconds"], 3)
        if rows["batch"]["seconds"] else None)
    rows["records_match"] = True
    return rows


def _bench_shmoo(config: FastpathBenchConfig) -> dict[str, Any]:
    """Time + count a paper-sized shmoo exact vs boundary-traced."""
    sram = Sram(MemoryGeometry(8, 2, 4), CMOS018)
    defects = [Defect(DefectKind.BRIDGE, BridgeSite.CELL_NODE_RAIL,
                      config.shmoo_defect_resistance, polarity=1, cell=13)]
    voltages = default_voltage_axis()
    periods = default_period_axis()
    rows: dict[str, Any] = {}
    grids: dict[str, Any] = {}
    for row in ("exact", "boundary"):
        runner = ShmooRunner(VirtualTester(DefectBehaviorModel(CMOS018)),
                             get_test("11N"))
        fill = runner.run_exhaustive if row == "exact" else runner.run
        started = time.perf_counter()
        plot = fill(sram, defects, voltages, periods)
        seconds = time.perf_counter() - started
        stats = runner.last_stats
        rows[row] = {
            "tester_invocations": stats.tester_invocations,
            "seconds": round(seconds, 6),
            "grid_cells": stats.grid_cells,
        }
        if row == "boundary":
            rows[row]["crosscheck_invocations"] = (
                stats.crosscheck_invocations)
            rows[row]["fallback"] = stats.fallback
        grids[row] = plot.passed
    if not np.array_equal(grids["exact"], grids["boundary"]):
        raise RuntimeError(
            "boundary-traced grid diverged from the exact grid -- the "
            "equivalence contract is broken")
    exact_calls = rows["exact"]["tester_invocations"]
    boundary_calls = max(1, rows["boundary"]["tester_invocations"])
    rows["invocation_reduction"] = round(exact_calls / boundary_calls, 2)
    rows["speedup"] = (
        round(rows["exact"]["seconds"] / rows["boundary"]["seconds"], 3)
        if rows["boundary"]["seconds"] else None)
    rows["grids_match"] = True
    return rows


#: Alternating timed runs per side of the adjacency and draw rows;
#: each side reports its median.
TIMING_REPEATS = 3


def _alternating_medians(
        runs: dict[str, Callable[[], object]]) -> dict[str, Any]:
    """``{row: {"seconds": median}}`` over :data:`TIMING_REPEATS`
    alternating calls of each zero-argument ``runs[row]``."""
    seconds: dict[str, list[float]] = {row: [] for row in runs}
    for _ in range(TIMING_REPEATS):
        for row, run in runs.items():
            started = time.perf_counter()
            run()
            seconds[row].append(time.perf_counter() - started)
    return {row: {"seconds": round(float(np.median(times)), 6)}
            for row, times in seconds.items()}


def _bench_adjacency() -> dict[str, Any]:
    """Time the pair search on the Veqtor4 window, sweep vs scan.

    The window is the same at every configuration: the scan costs
    ~0.3 s there, and a smaller window would under-report the sweep's
    asymptotic gain.
    """
    rects = SramLayout(VEQTOR4_INSTANCE).rects
    pairs = find_adjacent_pairs(rects)
    if pairs != find_adjacent_pairs_exhaustive(rects):
        raise RuntimeError(
            "sort-and-sweep pair list diverged from the pairwise scan -- "
            "the equivalence contract is broken")
    rows = _alternating_medians({
        "sweep": lambda: find_adjacent_pairs(rects),
        "exhaustive": lambda: find_adjacent_pairs_exhaustive(rects)})
    rows["rects"] = len(rects)
    rows["pairs"] = len(pairs)
    rows["speedup"] = round(
        rows["exhaustive"]["seconds"] / rows["sweep"]["seconds"], 3)
    rows["pairs_match"] = True
    return rows


#: Defects in the draw row: ``JointCoverageTable``'s default sample,
#: 80 % bridges then the opens.
DRAW_DEFECTS = 3000


def _bench_draw(config: FastpathBenchConfig) -> dict[str, Any]:
    """Time the test-plan defect draw, draw tables vs the oracle.

    Both sides draw on one calibrated Veqtor4 extractor, seeded with
    ``config.seed``; the first equality check builds the draw tables
    and the oracle's scanned site classes, so the clock sees only the
    per-defect draws.  The size is the same at every configuration:
    the draw is ~0.1 s on the oracle side.
    """
    extractor = IfaExtractor(VEQTOR4_INSTANCE)
    bridge_dist = default_bridge_distribution()
    open_dist = default_open_distribution()
    n_bridges = round(DRAW_DEFECTS * 0.8)

    def tables(rng: np.random.Generator) -> list[Defect]:
        return (extractor.sample_bridges(
                    n_bridges, rng, resistance_sampler=bridge_dist.sample_one)
                + extractor.sample_opens(
                    DRAW_DEFECTS - n_bridges, rng,
                    resistance_sampler=open_dist.sample_one))

    def oracle(rng: np.random.Generator) -> list[Defect]:
        return (sample_defects_reference(
                    extractor, n_bridges, rng, DefectKind.BRIDGE,
                    lambda r: sample_resistances_reference(bridge_dist, r)[0])
                + sample_defects_reference(
                    extractor, DRAW_DEFECTS - n_bridges, rng,
                    DefectKind.OPEN,
                    lambda r: sample_resistances_reference(open_dist, r)[0]))

    def seeded() -> np.random.Generator:
        return np.random.default_rng(config.seed)

    if tables(seeded()) != oracle(seeded()):
        raise RuntimeError(
            "draw-table defects diverged from the choice(p=...) oracle -- "
            "the equivalence contract is broken")
    rows = _alternating_medians({"tables": lambda: tables(seeded()),
                                 "oracle": lambda: oracle(seeded())})
    rows["defects"] = DRAW_DEFECTS
    rows["speedup"] = round(
        rows["oracle"]["seconds"] / rows["tables"]["seconds"], 3)
    rows["defects_match"] = True
    return rows


def run_fastpath(config: FastpathBenchConfig) -> dict[str, Any]:
    """Run the four fast-path comparisons.

    Args:
        config: Benchmark shape.

    Returns:
        The ``rows`` of the ``fastpath`` document: ``campaign``,
        ``shmoo``, ``adjacency`` and ``draw``.

    Raises:
        RuntimeError: a fast path's records, grid, pair list or defect
            list diverged from the exact path -- an equivalence bug that
            must fail loudly.
    """
    return {"campaign": _bench_campaign(config),
            "shmoo": _bench_shmoo(config),
            "adjacency": _bench_adjacency(),
            "draw": _bench_draw(config)}
