"""Tests for repro.defects.injection."""

from repro.circuit.technology import CMOS018
from repro.defects.behavior import FaultMode, Manifestation
from repro.defects.injection import (
    inject_open_into_decoder,
    to_functional_fault,
)
from repro.defects.models import OpenSite, open_defect
from repro.faults.models import (
    DataRetentionFault,
    MultipleAccessFault,
    ReadDestructiveFault,
    StuckAtFault,
    StuckOpenFault,
)
from repro.memory.geometry import MemoryGeometry


class TestBehaviouralRendering:
    def test_cell_stuck(self):
        m = Manifestation(FaultMode.CELL_STUCK, cell=5, stuck_value=1)
        f = to_functional_fault(m, n_cells=16)
        assert isinstance(f, StuckAtFault)
        assert f.cell == 5 and f.value == 1

    def test_cell_flip(self):
        m = Manifestation(FaultMode.CELL_FLIP, cell=3)
        assert isinstance(to_functional_fault(m, n_cells=16),
                          ReadDestructiveFault)

    def test_read_delay(self):
        m = Manifestation(FaultMode.READ_DELAY, cell=3)
        assert isinstance(to_functional_fault(m, n_cells=16), StuckOpenFault)

    def test_address_hazard_has_neighbour(self):
        m = Manifestation(FaultMode.ADDRESS_HAZARD, cell=15)
        f = to_functional_fault(m, n_cells=16)
        assert isinstance(f, MultipleAccessFault)
        assert f.extra_cells == (0,)   # wraps around

    def test_retention(self):
        m = Manifestation(FaultMode.RETENTION, cell=2, stuck_value=0)
        f = to_functional_fault(m, n_cells=16)
        assert isinstance(f, DataRetentionFault)

    def test_geometry_supplies_n_cells(self):
        g = MemoryGeometry(4, 2, 2)
        m = Manifestation(FaultMode.ADDRESS_HAZARD, cell=g.bits - 1)
        f = to_functional_fault(m, geometry=g)
        assert f.extra_cells == (0,)


class TestNetlistInjection:
    def test_open_into_decoder_floats_both_gates(self):
        d = open_defect(OpenSite.DECODER_INPUT, 1e6)
        nl = inject_open_into_decoder(CMOS018, 1.8, d)
        assert "Ropen_a0_p" in nl
        # Both inverter devices hang off the same spliced node.
        assert nl["INVA0_P"].gate == nl["INVA0_N"].gate
        assert nl["INVA0_P"].gate.startswith("_open")


class TestRetentionRenderingScale:
    def test_retention_window_scales_with_words(self):
        """The decay window must fit between word-level touches, which
        recur every ~words cycles -- not every ~bits cycles."""
        from repro.memory.geometry import VEQTOR4_INSTANCE

        m = Manifestation(FaultMode.RETENTION, cell=5, stuck_value=0)
        fault = to_functional_fault(m, geometry=VEQTOR4_INSTANCE)
        assert fault.retention_cycles <= VEQTOR4_INSTANCE.words
