"""Shmoo plots: pass/fail over the (Vdd, clock period) plane.

The paper's experimental evidence is presented as tester-generated shmoo
plots (Figures 3, 4, 7, 9, 10): supply voltage on the Y axis, clock
period on the X axis, one pass/fail mark per grid point.
:class:`ShmooRunner` sweeps the virtual tester over the grid;
:class:`ShmooPlot` holds the result, extracts boundaries and renders the
classic ASCII shmoo.

Axis conventions follow the paper: X = period ascending left-to-right
(so "at-speed" is on the left), Y = voltage ascending bottom-to-top.

Every paper shmoo is monotone within a voltage row: failing a longer
period implies failing every shorter one, so each row's pass region is
a suffix of the ascending period axis.  :meth:`ShmooRunner.run` locates
each row's boundary by bisection (seeded with the previous row's
boundary) and floods the rest of the row: O(V log P) tester invocations,
typically ~2-3 per row, instead of the V x P of testing every cell.  A
seeded sample of grid cells is then re-tested; any disagreement discards
the traced grid and refills it exhaustively, so the returned plot equals
the exhaustive fill for every row-monotone device and is still correct
for adversarial ones.  :meth:`ShmooRunner.run_exhaustive` is that fill
on its own, the reference the equivalence tests and the ``fastpath``
benchmark's ``shmoo`` row compare against.

Exact-path equivalence: tests/tester/test_shmoo.py
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from repro.defects.models import Defect
from repro.march.test import MarchTest
from repro.memory.sram import Sram
from repro.stress import StressCondition
from repro.tester.ate import VirtualTester

PASS_MARK = "+"
FAIL_MARK = "."


@dataclass
class ShmooPlot:
    """A filled shmoo grid.

    Attributes:
        voltages: Y-axis values (V), ascending.
        periods: X-axis values (s), ascending.
        passed: Boolean matrix ``[i_voltage, j_period]``.
        title: Plot label.
    """

    voltages: np.ndarray
    periods: np.ndarray
    passed: np.ndarray
    title: str = ""

    def __post_init__(self) -> None:
        self.voltages = np.asarray(self.voltages, dtype=float)
        self.periods = np.asarray(self.periods, dtype=float)
        self.passed = np.asarray(self.passed, dtype=bool)
        if self.passed.shape != (self.voltages.size, self.periods.size):
            raise ValueError("passed matrix shape mismatch")

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def passes_at(self, vdd: float, period: float) -> bool:
        """Pass/fail at the grid point nearest to (vdd, period)."""
        i = int(np.abs(self.voltages - vdd).argmin())
        j = int(np.abs(self.periods - period).argmin())
        return bool(self.passed[i, j])

    def min_passing_voltage(self, period: float) -> float | None:
        """Lowest passing Vdd at a period (None if the column all fails)."""
        j = int(np.abs(self.periods - period).argmin())
        col = self.passed[:, j]
        idx = np.flatnonzero(col)
        return float(self.voltages[idx[0]]) if idx.size else None

    def min_passing_period(self, vdd: float) -> float | None:
        """Shortest passing period at a voltage (None if the row fails)."""
        i = int(np.abs(self.voltages - vdd).argmin())
        row = self.passed[i, :]
        idx = np.flatnonzero(row)
        return float(self.periods[idx[0]]) if idx.size else None

    def fail_region_fraction(self) -> float:
        return 1.0 - float(self.passed.mean())

    def boundary_is_vertical(self, tolerance_steps: int = 1) -> bool:
        """True when the pass/fail boundary is (nearly) voltage
        independent -- the signature of a pure-RC delay defect, the
        paper's Chip-3."""
        cols = []
        for i in range(self.voltages.size):
            idx = np.flatnonzero(self.passed[i, :])
            if idx.size == 0:
                return False
            cols.append(int(idx[0]))
        return max(cols) - min(cols) <= tolerance_steps

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render(self, markers: dict[tuple[float, float], str] | None = None,
               ) -> str:
        """ASCII shmoo, voltage descending top-to-bottom.

        Args:
            markers: Optional ``(vdd, period) -> char`` overlays (e.g.
                the paper's dashed reference lines).  Each marker is
                *snapped to the nearest grid point* on both axes --
                exactly like :meth:`passes_at` -- so a reference value
                between grid lines lands on its closest cell instead of
                silently vanishing; markers snapping to the same cell
                overwrite in iteration order.
        """
        # Precompute each marker's grid cell once (nearest-index
        # lookup), instead of scanning every marker at every cell with
        # brittle float equality.
        cell_marks: dict[tuple[int, int], str] = {}
        if markers:
            for (mv, mp), mch in markers.items():
                i = int(np.abs(self.voltages - mv).argmin())
                j = int(np.abs(self.periods - mp).argmin())
                cell_marks[(i, j)] = mch
        lines = []
        if self.title:
            lines.append(self.title)
        for i in range(self.voltages.size - 1, -1, -1):
            row_chars = []
            for j in range(self.periods.size):
                ch = cell_marks.get(
                    (i, j), PASS_MARK if self.passed[i, j] else FAIL_MARK)
                row_chars.append(ch)
            lines.append(f"{self.voltages[i]:5.2f}V |" + "".join(row_chars))
        axis = "       +" + "-" * self.periods.size
        lines.append(axis)
        lo = self.periods[0] * 1e9
        hi = self.periods[-1] * 1e9
        lines.append(f"        {lo:.0f}ns .. {hi:.0f}ns (period)")
        return "\n".join(lines)


@dataclass
class ShmooRunStats:
    """Instrumentation of one :class:`ShmooRunner` sweep.

    Attributes:
        grid_cells: Grid size (V x P) -- the exhaustive fill's tester
            invocation count.
        tester_invocations: Tester invocations actually issued,
            including boundary tracing, the consistency sample and any
            exhaustive refill.
        crosscheck_invocations: Subset spent on the consistency sample.
        fallback: True when the consistency sample disagreed with the
            traced grid and the plot was refilled exhaustively.
    """

    grid_cells: int
    tester_invocations: int = 0
    crosscheck_invocations: int = 0
    fallback: bool = False


class ShmooRunner:
    """Sweep the tester over a (Vdd, period) grid.

    Args:
        tester: The virtual ATE.
        test: March test to apply at every point.
        crosscheck_fraction: Fraction of grid cells re-tested after a
            boundary trace (the guard that triggers the exhaustive
            refill).
        crosscheck_seed: Seed of the deterministic cell sample.
    """

    def __init__(self, tester: VirtualTester, test: MarchTest,
                 crosscheck_fraction: float = 0.05,
                 crosscheck_seed: int = 20050314) -> None:
        if not 0.0 <= crosscheck_fraction <= 1.0:
            raise ValueError("crosscheck_fraction must be in [0, 1]")
        self.tester = tester
        self.test = test
        self.crosscheck_fraction = crosscheck_fraction
        self.crosscheck_seed = crosscheck_seed
        #: Stats of the most recent sweep (None before any sweep).
        self.last_stats: ShmooRunStats | None = None

    def run(self, sram: Sram, defects: list[Defect],
            voltages: np.ndarray | list[float],
            periods: np.ndarray | list[float],
            title: str = "", bus=None) -> ShmooPlot:
        """Fill the shmoo grid (quick behavioural mode per point).

        Traces each row's pass/fail boundary by bisection and floods
        the rest (see the module docstring), refilling exhaustively
        when the sampled consistency check disagrees; ``last_stats``
        reports the invocation counts.

        Args:
            sram: Device under test.
            defects: Injected defects (empty for fault-free).
            voltages: Y-axis supply values (sorted ascending).
            periods: X-axis period values (sorted ascending).
            title: Plot label.
            bus: Optional :class:`~repro.obs.bus.EventBus`.  Emits
                ``shmoo.start``, one ``shmoo.row`` per filled voltage
                row (its first passing period index, or ``None`` for
                an all-fail row), ``shmoo.fallback`` when the
                consistency sample triggers the exhaustive refill (the
                refilled rows are then journalled again -- the journal
                records what actually ran) and ``shmoo.done`` with the
                tester-invocation total.  ``None`` (default) emits
                nothing.

        Returns:
            The filled :class:`ShmooPlot`.
        """
        return self._sweep(self._fill_boundary, sram, defects, voltages,
                           periods, title, bus)

    def run_exhaustive(self, sram: Sram, defects: list[Defect],
                       voltages: np.ndarray | list[float],
                       periods: np.ndarray | list[float],
                       title: str = "") -> ShmooPlot:
        """Test every grid cell: the V x P fill :meth:`run` replaces.

        Exists only as the reference of the equivalence tests and of
        the ``fastpath`` benchmark's ``shmoo`` row; :meth:`run` reaches
        the same fill only as its refill.
        """
        return self._sweep(self._fill_exhaustive, sram, defects,
                           voltages, periods, title, None)

    def _sweep(self, fill, sram: Sram, defects: list[Defect],
               voltages: np.ndarray | list[float],
               periods: np.ndarray | list[float],
               title: str, bus) -> ShmooPlot:
        voltages = np.sort(np.asarray(voltages, dtype=float))
        periods = np.sort(np.asarray(periods, dtype=float))
        stats = ShmooRunStats(grid_cells=voltages.size * periods.size)
        if bus is not None:
            bus.emit("shmoo.start", voltages=int(voltages.size),
                     periods=int(periods.size))
        passed = fill(sram, defects, voltages, periods, stats, bus)
        self.last_stats = stats
        if bus is not None:
            bus.emit("shmoo.done",
                     tester_invocations=stats.tester_invocations)
            bus.flush()
        return ShmooPlot(voltages, periods, passed, title)

    # ------------------------------------------------------------------
    # Fills
    # ------------------------------------------------------------------
    def _point(self, sram: Sram, defects: list[Defect], vdd: float,
               period: float, stats: ShmooRunStats) -> bool:
        """One counted tester invocation at a grid point."""
        stats.tester_invocations += 1
        condition = StressCondition("shmoo", float(vdd), float(period))
        return bool(self.tester.test_device(sram, defects, self.test,
                                            condition, quick=True).passed)

    @staticmethod
    def _emit_row(bus, i: int, vdd: float, first: int, n: int) -> None:
        """One ``shmoo.row`` event (``first_pass`` None = all-fail)."""
        if bus is not None:
            bus.emit("shmoo.row", row=i, vdd=float(vdd),
                     first_pass=int(first) if first < n else None)

    def _fill_exhaustive(self, sram: Sram, defects: list[Defect],
                         voltages: np.ndarray, periods: np.ndarray,
                         stats: ShmooRunStats, bus=None) -> np.ndarray:
        """Test every cell of the grid."""
        passed = np.zeros((voltages.size, periods.size), dtype=bool)
        for i, vdd in enumerate(voltages):
            for j, period in enumerate(periods):
                passed[i, j] = self._point(sram, defects, vdd, period,
                                           stats)
            row = np.flatnonzero(passed[i, :])
            self._emit_row(bus, i, vdd,
                           int(row[0]) if row.size else periods.size,
                           periods.size)
        return passed

    def _fill_boundary(self, sram: Sram, defects: list[Defect],
                       voltages: np.ndarray, periods: np.ndarray,
                       stats: ShmooRunStats, bus=None) -> np.ndarray:
        """Trace each row's boundary, flood the rest, verify a sample."""
        n = periods.size
        passed = np.zeros((voltages.size, n), dtype=bool)
        hint: int | None = None
        for i, vdd in enumerate(voltages):
            first = self._first_passing(
                lambda j, v=vdd: self._point(sram, defects, v,
                                             periods[j], stats),
                n, hint)
            passed[i, first:] = True
            hint = first
            self._emit_row(bus, i, vdd, first, n)
        if not self._consistent(sram, defects, voltages, periods, passed,
                                stats):
            stats.fallback = True
            if bus is not None:
                bus.emit("shmoo.fallback")
            return self._fill_exhaustive(sram, defects, voltages, periods,
                                         stats, bus)
        return passed

    @staticmethod
    def _first_passing(point, n: int, hint: int | None) -> int:
        """First index with ``point(j)`` True, assuming a pass suffix.

        Bisects under the row-monotonicity assumption (pass at period j
        implies pass at every j' > j), seeding from the previous row's
        boundary when given: the hint is probed first and the frontier
        galloped outward from it, so rows whose boundary moved little
        cost ~2 probes.  Results are memoised, so no grid point is
        tested twice within one row.

        Args:
            point: ``j -> bool`` pass probe for this row.
            n: Row length.
            hint: Previous row's first passing index (or None).

        Returns:
            The first passing index, or ``n`` when the row all-fails.
        """
        known: dict[int, bool] = {}

        def probe(j: int) -> bool:
            if j not in known:
                known[j] = point(j)
            return known[j]

        if n == 0:
            return 0
        lo: int | None = None  # greatest known failing index
        hi: int | None = None  # least known passing index
        if hint is not None and 0 <= hint < n:
            if probe(hint):
                if hint == 0 or not probe(hint - 1):
                    return hint
                # Boundary is strictly left of the hint: gallop left.
                hi, step = hint - 1, 1
                cursor = hi - step
                while cursor > 0 and probe(cursor):
                    hi = cursor
                    step *= 2
                    cursor = hi - step
                if cursor <= 0:
                    if probe(0):
                        return 0
                    lo = 0
                else:
                    lo = cursor
            else:
                # Boundary is strictly right of the hint: gallop right.
                lo, step = hint, 1
                cursor = lo + step
                while cursor < n - 1 and not probe(cursor):
                    lo = cursor
                    step *= 2
                    cursor = lo + step
                if cursor >= n - 1:
                    if not probe(n - 1):
                        return n
                    hi = n - 1
                else:
                    hi = cursor
        else:
            if not probe(n - 1):
                return n
            if probe(0):
                return 0
            lo, hi = 0, n - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if probe(mid):
                hi = mid
            else:
                lo = mid
        return hi

    def _consistent(self, sram: Sram, defects: list[Defect],
                    voltages: np.ndarray, periods: np.ndarray,
                    passed: np.ndarray, stats: ShmooRunStats) -> bool:
        """Re-test a seeded sample of cells against the traced grid."""
        total = voltages.size * periods.size
        if self.crosscheck_fraction <= 0.0 or total == 0:
            return True
        samples = min(total,
                      max(1, math.ceil(self.crosscheck_fraction * total)))
        rng = random.Random(f"{self.crosscheck_seed}:{total}")
        for cell in rng.sample(range(total), samples):
            i, j = divmod(cell, periods.size)
            stats.crosscheck_invocations += 1
            if self._point(sram, defects, voltages[i], periods[j],
                           stats) != passed[i, j]:
                return False
        return True


def default_voltage_axis(lo: float = 0.8, hi: float = 2.2,
                         steps: int = 15) -> np.ndarray:
    """The paper's shmoo voltage range (0.8 .. 2.2 V)."""
    return np.linspace(lo, hi, steps)


def default_period_axis(lo: float = 5e-9, hi: float = 120e-9,
                        steps: int = 24) -> np.ndarray:
    """Log-spaced period axis covering at-speed (5 ns) to slow (120 ns)."""
    return np.logspace(np.log10(lo), np.log10(hi), steps)
