"""Tests for repro.faults.dynamic (PrimitiveFault engine + at-speed)."""

import pytest

from repro.faults.dynamic import (
    AtSpeedDynamicFault,
    PrimitiveFault,
    make_double_read_fault,
    make_dynamic_rdf,
)
from repro.faults.models import MemoryState, ReadDestructiveFault
from repro.faults.primitives import FaultPrimitive
from repro.faults.simulator import FunctionalFaultSimulator
from repro.march.library import MARCH_CM, MARCH_SS, TEST_11N


@pytest.fixture
def mem():
    return MemoryState(8)


class TestStaticPrimitives:
    def test_rdf_primitive_matches_handwritten(self):
        """The generic engine reproduces the hand-written RDF model."""
        sim = FunctionalFaultSimulator(8)
        generic0 = PrimitiveFault(FaultPrimitive.parse("<0r0/1/1>"), cell=3)
        generic1 = PrimitiveFault(FaultPrimitive.parse("<1r1/0/0>"), cell=3)
        hand = ReadDestructiveFault(3)
        for test in (MARCH_CM, TEST_11N, MARCH_SS):
            hand_hit = sim.detects(test, hand)
            generic_hit = (sim.detects(test, generic0)
                           or sim.detects(test, generic1))
            assert hand_hit == generic_hit, test.name

    def test_cfst_style_primitive(self, mem):
        """<1; 0/1/->: victim forced to 1 while aggressor holds 1."""
        f = PrimitiveFault(FaultPrimitive.parse("<1; 0w0/1/->"), cell=2,
                           aggressor_cell=5)
        f.write(mem, 5, 1, 0)
        f.write(mem, 2, 0, 1)   # establishes state 0 (pre-state unknown)
        f.write(mem, 2, 0, 2)   # non-transition write from state 0: fires
        assert f.read(mem, 2, 3) == 1

    def test_aggressor_op_primitive(self, mem):
        """<0w1; 0/1/->: CFid-style aggressor-write coupling."""
        f = PrimitiveFault(FaultPrimitive.parse("<0w1; 0/1/->"), cell=2,
                           aggressor_cell=5)
        f.write(mem, 2, 0, 0)
        f.write(mem, 5, 0, 1)
        f.write(mem, 5, 1, 2)   # 0 -> 1 transition on aggressor
        assert f.read(mem, 2, 3) == 1

    def test_aggressor_required_state(self, mem):
        f = PrimitiveFault(FaultPrimitive.parse("<0w1; 0/1/->"), cell=2,
                           aggressor_cell=5)
        f.write(mem, 2, 0, 0)
        f.write(mem, 5, 1, 1)   # unknown -> 1: pre-state was not 0
        assert f.read(mem, 2, 2) == 0

    def test_coupling_needs_aggressor_cell(self):
        with pytest.raises(ValueError):
            PrimitiveFault(FaultPrimitive.parse("<1; 0/1/->"), cell=2)

    def test_victim_equals_aggressor_rejected(self):
        with pytest.raises(ValueError):
            PrimitiveFault(FaultPrimitive.parse("<1; 0/1/->"), cell=2,
                           aggressor_cell=2)


class TestDynamicSequences:
    def test_wr_pair_fires_back_to_back(self, mem):
        f = make_dynamic_rdf(cell=0, state=0)
        f.write(mem, 0, 0, 0)
        f.write(mem, 0, 1, 1)
        value = f.read(mem, 0, 2)
        assert value == 1            # deceptive: read looks correct
        assert mem.get(0) == 0       # but the cell flipped back

    def test_wr_pair_silent_with_gap(self, mem):
        f = make_dynamic_rdf(cell=0, state=0)
        f.write(mem, 0, 0, 0)
        f.write(mem, 0, 1, 1)
        # Intervening access to another cell consumes the timing slack.
        f.read(mem, 5, 2)
        assert f.read(mem, 0, 9) == 1
        assert mem.get(0) == 1       # no flip: not back-to-back

    def test_double_read_fault(self, mem):
        f = make_double_read_fault(cell=0, state=0)
        f.write(mem, 0, 0, 0)
        assert f.read(mem, 0, 1) == 0
        assert f.read(mem, 0, 2) == 1   # second consecutive read disturbs
        assert mem.get(0) == 1

    def test_initial_state_gating(self, mem):
        f = make_dynamic_rdf(cell=0, state=0)
        f.write(mem, 0, 1, 0)    # cell holds 1, not the required 0
        f.write(mem, 0, 1, 1)
        f.read(mem, 0, 2)
        assert mem.get(0) == 1   # primitive did not fire

    def test_gap_parameter_validation(self):
        with pytest.raises(ValueError):
            AtSpeedDynamicFault(
                primitive=FaultPrimitive.parse("<0w1r1/0/1>"), cell=0,
                max_gap_cycles=0)

    def test_wider_gap_window(self, mem):
        f = AtSpeedDynamicFault(
            primitive=FaultPrimitive.parse("<0w1r1/0/1>"), cell=0,
            max_gap_cycles=5)
        f.write(mem, 0, 0, 0)
        f.write(mem, 0, 1, 1)
        f.read(mem, 0, 4)        # gap of 3 cycles, within window
        assert mem.get(0) == 0


class TestDetectionByMarchTests:
    def test_dynamic_rdf_caught_by_read_after_write_test(self):
        """TEST_11N's ⇓(r0,w1,r1) element reads right after writing --
        it sensitises w-r dynamic faults; a second read elsewhere
        detects the flip."""
        sim = FunctionalFaultSimulator(8)
        detected = sum(
            sim.detects(TEST_11N, make_dynamic_rdf(c, 0)) for c in range(8)
        )
        assert detected == 8

    def test_reset_between_runs(self):
        sim = FunctionalFaultSimulator(8)
        fault = make_dynamic_rdf(0, 0)
        first = sim.detects(TEST_11N, fault)
        second = sim.detects(TEST_11N, fault)
        assert first == second
