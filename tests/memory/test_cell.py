"""Tests for repro.memory.cell (6T cell electrical analysis)."""

import pytest

from repro.circuit.technology import CMOS018
from repro.memory.cell import CellRatios, SixTCell


@pytest.fixture(scope="module")
def cell():
    return SixTCell(CMOS018)


class TestCellRatios:
    def test_defaults_are_read_stable(self):
        r = CellRatios()
        assert r.pull_down > r.access
        assert r.access > r.pull_up  # writable: gamma > 1

    def test_validation(self):
        with pytest.raises(ValueError):
            CellRatios(pull_down=0.0)


class TestBistability:
    @pytest.mark.parametrize("vdd", [1.0, 1.65, 1.8, 1.95])
    @pytest.mark.parametrize("state", [0, 1])
    def test_holds_both_states_at_all_corners(self, cell, vdd, state):
        op = cell.solve_state(vdd, state)
        assert cell.holds_state(op, state, vdd)

    def test_nodes_complementary(self, cell):
        op = cell.solve_state(1.8, 1)
        assert op[cell.node("t")] > 1.5
        assert op[cell.node("c")] < 0.3


class TestCriticalResistance:
    def test_gnd_bridge_critical_resistance_decreases_with_vdd(self, cell):
        """The VLV mechanism at transistor level: lower supply -> weaker
        restore -> higher-ohmic bridges upset the cell."""
        r_vlv = cell.retention_upset_resistance(1.0, 1, "gnd")
        r_nom = cell.retention_upset_resistance(1.8, 1, "gnd")
        r_max = cell.retention_upset_resistance(1.95, 1, "gnd")
        assert r_vlv > r_nom > r_max

    def test_hard_short_always_upsets(self, cell):
        r = cell.retention_upset_resistance(1.8, 1, "gnd")
        assert r > 100.0  # a 100-ohm short is well below critical

    def test_vdd_bridge_direction(self, cell):
        """Bridging the low node to VDD also has a finite critical R."""
        r = cell.retention_upset_resistance(1.8, 1, "vdd")
        assert 100.0 < r < 1e8

    def test_invalid_rail(self, cell):
        with pytest.raises(ValueError):
            cell.retention_upset_resistance(1.8, 1, "vss")


class TestNetlistConstruction:
    def test_six_transistors(self, cell):
        from repro.circuit.devices import Mosfet
        from repro.circuit.netlist import Netlist

        nl = Netlist()
        from repro.circuit.devices import VoltageSource
        nl.add(VoltageSource("Vdd", "vdd", "0", 1.8))
        cell.build(nl)
        assert len(list(nl.devices_of_type(Mosfet))) == 6

    def test_standalone_has_supplies_and_caps(self, cell):
        nl = cell.standalone_netlist(1.8, 1)
        assert "Vdd" in nl and "Vwl" in nl and "Vbl" in nl
        assert "Ct" in nl and "Cc" in nl

    def test_wordline_off_by_default(self, cell):
        nl = cell.standalone_netlist(1.8, 1)
        assert nl["Vwl"].value == 0.0
