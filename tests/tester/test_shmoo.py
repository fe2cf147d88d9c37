"""Tests for repro.tester.shmoo."""

import numpy as np
import pytest

from repro.circuit.technology import CMOS018
from repro.defects.behavior import DefectBehaviorModel
from repro.cli import _DEFECT_PRESETS
from repro.defects.models import (
    BridgeSite,
    Defect,
    DefectKind,
    OpenSite,
    bridge,
    open_defect,
)
from repro.march.library import TEST_11N
from repro.memory.geometry import MemoryGeometry
from repro.memory.sram import Sram
from repro.tester import shmoo
from repro.tester.ate import VirtualTester
from repro.tester.shmoo import (
    ShmooPlot,
    ShmooRunner,
    default_period_axis,
    default_voltage_axis,
)

from ..counting import CountingTester


@pytest.fixture(scope="module")
def runner():
    tester = VirtualTester(DefectBehaviorModel(CMOS018))
    return ShmooRunner(tester, TEST_11N)


@pytest.fixture(scope="module")
def sram():
    return Sram(MemoryGeometry(8, 2, 4), CMOS018)


@pytest.fixture(scope="module")
def fault_free_plot(runner, sram):
    return runner.run(sram, [], default_voltage_axis(),
                      default_period_axis(), "fault-free")


class TestShmooPlotContainer:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ShmooPlot(np.array([1.0, 2.0]), np.array([1e-9]),
                      np.zeros((1, 1), dtype=bool))

    def test_queries(self, fault_free_plot):
        assert fault_free_plot.passes_at(1.8, 100e-9)
        assert not fault_free_plot.passes_at(0.8, 5e-9)

    def test_min_passing_voltage(self, fault_free_plot):
        v = fault_free_plot.min_passing_voltage(100e-9)
        assert v is not None and v <= 1.0

    def test_min_passing_period_monotone_in_vdd(self, fault_free_plot):
        p_low = fault_free_plot.min_passing_period(1.0)
        p_high = fault_free_plot.min_passing_period(1.95)
        assert p_low > p_high

    def test_render_contains_marks(self, fault_free_plot):
        text = fault_free_plot.render()
        assert "+" in text and "." in text
        assert "fault-free" in text
        assert "ns" in text


class TestFigureThreeAnchors:
    """Figure 3: the fault-free device's shmoo."""

    def test_passes_vlv_at_100ns(self, fault_free_plot):
        assert fault_free_plot.passes_at(1.0, 100e-9)

    def test_fails_lower_left(self, fault_free_plot):
        assert not fault_free_plot.passes_at(0.8, 5e-9)

    def test_boundary_not_vertical(self, fault_free_plot):
        """The fault-free boundary curves with voltage (unlike Chip-3)."""
        assert not fault_free_plot.boundary_is_vertical()


class TestDefectShmoos:
    def test_chip1_fails_only_low_voltage(self, runner, sram):
        d = bridge(BridgeSite.CELL_NODE_RAIL, 240e3, polarity=1)
        plot = runner.run(sram, [d], default_voltage_axis(),
                          default_period_axis())
        assert not plot.passes_at(1.0, 100e-9)   # VLV fail
        assert plot.passes_at(1.8, 100e-9)       # standard pass
        assert plot.passes_at(1.95, 100e-9)

    def test_chip2_fails_only_high_voltage(self, runner, sram):
        d = open_defect(OpenSite.DECODER_INPUT, 5e5)
        plot = runner.run(sram, [d], default_voltage_axis(),
                          default_period_axis())
        assert not plot.passes_at(2.0, 100e-9)
        assert not plot.passes_at(2.2, 100e-9)
        assert plot.passes_at(1.8, 100e-9)
        assert plot.passes_at(1.0, 100e-9)
        # Frequency independent: fails at Vmax even at the slowest period.
        assert not plot.passes_at(2.0, float(plot.periods[-1]))

    def test_chip3_vertical_boundary(self, runner, sram):
        d = open_defect(OpenSite.BITLINE_SEGMENT, 3e6)
        volts = np.linspace(1.5, 2.1, 7)
        periods = np.linspace(10e-9, 30e-9, 21)
        plot = runner.run(sram, [d], volts, periods)
        assert plot.boundary_is_vertical()
        # Fails at 16 ns, passes at 17 ns irrespective of Vdd (paper).
        boundary = plot.min_passing_period(1.8)
        assert 15e-9 < boundary < 18e-9

    def test_chip4_boundary_moves_with_voltage(self, runner, sram):
        d = open_defect(OpenSite.PERIPHERY_PATH, 3e6)
        volts = np.linspace(1.4, 2.1, 8)
        periods = np.linspace(6e-9, 40e-9, 18)
        plot = runner.run(sram, [d], volts, periods)
        assert not plot.boundary_is_vertical()
        p_low = plot.min_passing_period(1.4)
        p_high = plot.min_passing_period(2.1)
        assert p_low > p_high

    def test_fail_region_fraction(self, runner, sram):
        d = bridge(BridgeSite.CELL_NODE_RAIL, 20.0)
        plot = runner.run(sram, [d], default_voltage_axis(),
                          default_period_axis())
        assert not plot.passed.any()


class TestGridEdgeCases:
    def test_all_fail_grid(self, runner, sram):
        """A dead-short device: every query degrades gracefully."""
        d = bridge(BridgeSite.CELL_NODE_RAIL, 20.0)
        plot = runner.run(sram, [d], default_voltage_axis(),
                          default_period_axis())
        assert not plot.passed.any()
        assert not plot.boundary_is_vertical()
        assert plot.min_passing_voltage(100e-9) is None
        assert plot.min_passing_period(1.8) is None
        assert "+" not in plot.render().split("\n")[0]

    @pytest.mark.parametrize("voltages,periods", [
        ([1.8], default_period_axis()),          # single row
        (default_voltage_axis(), [100e-9]),      # single column
        ([1.8], [100e-9]),                       # single cell
    ])
    def test_degenerate_grids_match_exhaustive(self, runner, sram,
                                               voltages, periods):
        d = bridge(BridgeSite.CELL_NODE_RAIL, 240e3, polarity=1)
        exact = runner.run_exhaustive(sram, [d], voltages, periods)
        traced = runner.run(sram, [d], voltages, periods)
        assert np.array_equal(exact.passed, traced.passed)
        assert not runner.last_stats.fallback


CHIP_DEFECTS = {
    "fig3-faultfree": [],
    "fig4-chip1": [bridge(BridgeSite.CELL_NODE_RAIL, 240e3, polarity=1)],
    "fig7-chip2": [open_defect(OpenSite.DECODER_INPUT, 5e5)],
    "fig9-chip3": [open_defect(OpenSite.BITLINE_SEGMENT, 3e6)],
    "fig10-chip4": [open_defect(OpenSite.PERIPHERY_PATH, 3e6)],
}


class TestBoundaryTrace:
    """boundary-traced fill == exhaustive fill, several-fold cheaper."""

    def test_strategy_is_not_an_option(self, runner, sram):
        """Every run traces its boundary: there is nothing to choose."""
        with pytest.raises(TypeError, match="strategy"):
            runner.run(sram, [], [1.8], [100e-9], strategy="exact")

    @pytest.mark.parametrize("figure", sorted(CHIP_DEFECTS))
    def test_paper_figures_identical_with_3x_fewer_calls(
            self, sram, figure):
        defects = CHIP_DEFECTS[figure]
        tester = CountingTester(VirtualTester(DefectBehaviorModel(CMOS018)))
        runner = ShmooRunner(tester, TEST_11N)
        volts, periods = default_voltage_axis(), default_period_axis()
        exact = runner.run_exhaustive(sram, defects, volts, periods)
        exact_calls = tester.calls
        assert exact_calls == runner.last_stats.grid_cells
        tester.reset()
        traced = runner.run(sram, defects, volts, periods)
        assert np.array_equal(exact.passed, traced.passed)
        stats = runner.last_stats
        assert stats.tester_invocations == tester.calls
        assert not stats.fallback
        assert stats.crosscheck_invocations > 0
        # The ISSUE acceptance floor, as a call-count inequality.
        assert exact_calls >= 3 * tester.calls

    @pytest.mark.parametrize("defect", [
        bridge(BridgeSite.CELL_NODE_RAIL, 1e3),
        bridge(BridgeSite.BITLINE_BITLINE, 90e3, polarity=-1),
        open_defect(OpenSite.CELL_ACCESS, 1e5),
        open_defect(OpenSite.PERIPHERY_PATH, 1e7),
    ])
    def test_property_boundary_equals_full_fill(self, runner, sram,
                                                defect):
        """Every stock (row-monotone) defect traces to the exhaustive
        grid."""
        volts = np.linspace(0.9, 2.1, 7)
        periods = np.logspace(np.log10(6e-9), np.log10(110e-9), 11)
        exact = runner.run_exhaustive(sram, [defect], volts, periods)
        traced = runner.run(sram, [defect], volts, periods)
        assert np.array_equal(exact.passed, traced.passed)
        assert not runner.last_stats.fallback

    def test_adversarial_device_falls_back_to_exhaustive(self, sram,
                                                         monkeypatch):
        """A non-row-monotone device trips the guard, not the result."""
        class _Result:
            def __init__(self, passed):
                self.passed = passed

        class CheckerboardTester:
            """Pass/fail alternates along the period axis."""

            def test_device(self, sram, defects, test, condition,
                            quick=False):
                return _Result(int(condition.period * 1e9) % 2 == 0)

        monkeypatch.setattr(shmoo, "CROSSCHECK_FRACTION", 1.0)
        runner = ShmooRunner(CheckerboardTester(), TEST_11N)
        volts = np.linspace(1.0, 2.0, 4)
        periods = np.linspace(10e-9, 21e-9, 12)
        exact = runner.run_exhaustive(sram, [], volts, periods)
        traced = runner.run(sram, [], volts, periods)
        assert runner.last_stats.fallback
        assert np.array_equal(exact.passed, traced.passed)


#: The ``repro shmoo`` cases: fault-free, and every defect preset at a
#: low, the paper's, a high and an extreme resistance.
CLI_CASES = [("fault-free", None)] + [
    (preset, resistance)
    for preset in sorted(_DEFECT_PRESETS)
    for resistance in (1e3, 240e3, 1e6, 30e6)]


@pytest.mark.parametrize("preset,resistance", CLI_CASES,
                         ids=[f"{p}-{r:g}" if r else p
                              for p, r in CLI_CASES])
def test_cli_presets_trace_to_exhaustive_grid(runner, sram, preset,
                                              resistance):
    """``repro shmoo``'s grid for every preset equals the exhaustive
    fill, without the refill."""
    defects = []
    if resistance is not None:
        kind, site = _DEFECT_PRESETS[preset]
        kind = DefectKind(kind)
        site = (BridgeSite(site) if kind is DefectKind.BRIDGE
                else OpenSite(site))
        defects.append(Defect(kind, site, resistance, polarity=1))
    volts, periods = default_voltage_axis(), default_period_axis()
    exact = runner.run_exhaustive(sram, defects, volts, periods)
    traced = runner.run(sram, defects, volts, periods)
    assert np.array_equal(exact.passed, traced.passed)
    assert not runner.last_stats.fallback
    assert runner.last_stats.tester_invocations < exact.passed.size


class TestAxes:
    def test_default_axes_cover_paper_ranges(self):
        v = default_voltage_axis()
        p = default_period_axis()
        assert v[0] <= 1.0 and v[-1] >= 1.95
        assert p[0] <= 15e-9 and p[-1] >= 100e-9

    def test_runner_sorts_axes(self, runner, sram):
        plot = runner.run(sram, [], [2.0, 1.0, 1.5], [50e-9, 10e-9])
        assert list(plot.voltages) == [1.0, 1.5, 2.0]
        assert list(plot.periods) == [10e-9, 50e-9]
