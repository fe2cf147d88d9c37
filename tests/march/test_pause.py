"""Tests for pause (delay) elements and retention testing."""

import pytest

from repro.faults.models import DataRetentionFault
from repro.faults.simulator import FunctionalFaultSimulator
from repro.lint import lint_march
from repro.march.library import MARCH_G, MARCH_G_DEL
from repro.march.pause import PauseElement
from repro.march.sequencer import MarchSequencer
from repro.march.test import MarchTest


class TestPauseElement:
    def test_validation(self):
        with pytest.raises(ValueError):
            PauseElement(0)
        with pytest.raises(ValueError):
            PauseElement(-5)

    def test_protocol_is_state_neutral(self):
        p = PauseElement(100)
        assert len(p) == 0
        assert p.entry_state() is None
        assert p.final_write_value() is None
        assert p.is_consistent()
        assert p.reads == () and p.writes == ()

    def test_notation_roundtrip(self):
        p = PauseElement(2000)
        assert p.notation == "Del(2000)"
        assert PauseElement.parse(p.notation) == p

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            PauseElement.parse("Wait(5)")


class TestMarchTestWithPauses:
    def test_parse_mixed_notation(self):
        t = MarchTest.parse("p", "*(w0); ^(r0,w1); Del(100); *(r1)")
        assert isinstance(t.elements[2], PauseElement)
        assert t.complexity == 4          # pauses add no per-cell ops
        assert t.is_consistent()
        assert not lint_march(t).errors

    def test_pause_preserves_state_chain(self):
        # A pause between w1 and r1 must not break consistency.
        t = MarchTest.parse("p", "*(w1); Del(10); *(r1)")
        assert t.is_consistent()
        # ...and a contradiction across a pause is still caught.
        bad = MarchTest.parse("p", "*(w1); Del(10); *(r0)")
        assert not bad.is_consistent()

    def test_only_pauses_invalid(self):
        t = MarchTest("p", (PauseElement(5),))
        codes = {i.rule_id for i in lint_march(t).errors}
        assert "MARCH001" in codes or "MARCH005" in codes


class TestSequencerWithPauses:
    def test_cycle_count_includes_pauses(self):
        t = MarchTest.parse("p", "*(w0); Del(100); *(r0)")
        stream = list(MarchSequencer(8).run(t))
        assert stream[-1].cycle + 1 == 2 * 8 + 100

    def test_pause_creates_cycle_gap(self):
        t = MarchTest.parse("p", "*(w0); Del(100); *(r0)")
        stream = list(MarchSequencer(4).run(t))
        # Last write at cycle 3; first read must start at 4 + 100.
        write_cycles = [c.cycle for c in stream if c.op.is_write]
        read_cycles = [c.cycle for c in stream if c.op.is_read]
        assert max(write_cycles) == 3
        assert min(read_cycles) == 104


class TestRetentionDetection:
    def test_march_g_needs_its_delays(self):
        """The classical DRF result: March G without delay elements
        misses retention faults; with them it detects both decay
        polarities."""
        sim = FunctionalFaultSimulator(8)
        for decay in (0, 1):
            drf = DataRetentionFault(cell=3, decay_value=decay,
                                     retention_cycles=500)
            assert not sim.detects(MARCH_G, drf), decay
            assert sim.detects(MARCH_G_DEL, drf), decay

    def test_pause_shorter_than_retention_still_misses(self):
        sim = FunctionalFaultSimulator(8)
        quick = MarchTest.parse(
            "quick", "*(w0); ^(r0,w1); Del(50); *(r1)")
        drf = DataRetentionFault(cell=3, decay_value=0,
                                 retention_cycles=5000)
        assert not sim.detects(quick, drf)

    def test_pullup_open_retention_story(self):
        """End to end: a VLV-manifested pull-up open renders as a
        retention fault; only the delay test sees it."""
        from repro.circuit.technology import CMOS018
        from repro.defects.behavior import DefectBehaviorModel
        from repro.defects.injection import to_functional_fault
        from repro.defects.models import OpenSite, open_defect
        from repro.stress import production_conditions

        behavior = DefectBehaviorModel(CMOS018)
        conds = production_conditions(CMOS018)
        defect = open_defect(OpenSite.CELL_PULLUP, 3e6, cell=2)
        m = behavior.manifestation(defect, conds["VLV"])
        assert m is not None
        fault = to_functional_fault(m, n_cells=8)
        sim = FunctionalFaultSimulator(8)
        assert sim.detects(MARCH_G_DEL, fault)
