"""Tests for repro.bist (MISR + BIST engine)."""

import pytest

from repro.bist.engine import BistEngine, ResponseMode
from repro.bist.misr import PRIMITIVE_TAPS, Misr
from repro.circuit.technology import CMOS018
from repro.defects.behavior import DefectBehaviorModel
from repro.defects.injection import to_functional_fault
from repro.defects.models import BridgeSite, bridge
from repro.faults.models import StuckAtFault
from repro.march.library import MARCH_CM, TEST_11N
from repro.memory.geometry import MemoryGeometry
from repro.memory.sram import Sram
from repro.stress import StressCondition, production_conditions


@pytest.fixture
def sram():
    return Sram(MemoryGeometry(8, 2, 4), CMOS018)


@pytest.fixture(scope="module")
def conds():
    return production_conditions(CMOS018)


class TestMisr:
    def test_deterministic(self):
        a, b = Misr(16), Misr(16)
        for word in (1, 7, 0, 12, 5):
            a.inject(word)
            b.inject(word)
        assert a.signature == b.signature

    def test_sensitive_to_single_bit(self):
        a, b = Misr(16), Misr(16)
        stream = [3, 9, 4, 15, 0, 2]
        for w in stream:
            a.inject(w)
        stream[3] ^= 1
        for w in stream:
            b.inject(w)
        assert a.signature != b.signature

    def test_order_sensitive(self):
        a, b = Misr(16), Misr(16)
        for w in (1, 2):
            a.inject(w)
        for w in (2, 1):
            b.inject(w)
        assert a.signature != b.signature

    def test_wide_word_folding(self):
        m = Misr(8)
        m.inject(0x1FF)  # wider than the register
        assert 0 <= m.signature < 256

    def test_primitive_taps_table(self):
        assert set(PRIMITIVE_TAPS) >= {8, 16, 32}


class TestBistEngine:
    def test_clean_device_passes_both_modes(self, sram, conds):
        engine = BistEngine(sram)
        for mode in ResponseMode:
            result = engine.run(TEST_11N, conds["Vnom"], mode)
            assert result.passed, mode
            assert result.cycles == 11 * sram.geometry.words

    def test_comparator_latches_first_fail(self, sram, conds):
        cell = sram.geometry.cell_index(5, 2)
        sram.attach_fault(StuckAtFault(cell, 0))
        engine = BistEngine(sram)
        result = engine.run(TEST_11N, conds["Vnom"])
        assert not result.passed
        assert result.first_fail_address == 5
        assert result.first_fail_cycle >= 0

    def test_misr_signature_differs_on_fault(self, sram, conds):
        sram.attach_fault(StuckAtFault(3, 1))
        engine = BistEngine(sram)
        result = engine.run(TEST_11N, conds["Vnom"], ResponseMode.MISR)
        assert not result.passed
        assert result.signature != result.golden

    def test_misr_agrees_with_comparator(self, sram, conds):
        """Both response modes give the same verdict (aliasing aside)."""
        engine = BistEngine(sram)
        cases = [None, StuckAtFault(0, 0), StuckAtFault(7, 1)]
        for fault in cases:
            sram.clear_faults()
            if fault is not None:
                sram.attach_fault(fault)
            comp = engine.run(MARCH_CM, conds["Vnom"])
            misr = engine.run(MARCH_CM, conds["Vnom"], ResponseMode.MISR)
            assert comp.passed == misr.passed

    def test_gross_timing_fail(self, sram, conds):
        engine = BistEngine(sram)
        result = engine.run(TEST_11N, StressCondition("fast", 1.0, 5e-9))
        assert not result.passed
        assert result.gross_timing_fail

    def test_stress_methodology_through_bist(self, sram, conds):
        """The paper's flow with on-chip test: the VLV-only bridge
        passes the BIST at Vnom and fails it at VLV."""
        geometry = sram.geometry
        behavior = DefectBehaviorModel(CMOS018)
        defect = bridge(BridgeSite.CELL_NODE_RAIL, 150e3,
                        cell=geometry.cell_index(3, 1), polarity=1)
        engine = BistEngine(sram)

        for name, expect_pass in (("Vnom", True), ("VLV", False)):
            sram.clear_faults()
            m = behavior.manifestation(defect, conds[name])
            if m is not None:
                sram.attach_fault(to_functional_fault(m, geometry=geometry))
            result = engine.run(TEST_11N, conds[name])
            assert result.passed == expect_pass, name
        sram.clear_faults()

    def test_golden_signature_cached(self, sram, conds):
        engine = BistEngine(sram)
        engine.run(TEST_11N, conds["Vnom"], ResponseMode.MISR)
        assert len(engine._golden_cache) == 1
        engine.run(TEST_11N, conds["Vmax"], ResponseMode.MISR)
        assert len(engine._golden_cache) == 1  # same test reused


class TestMisrProperties:
    """Hypothesis: the MISR must catch any single-word corruption."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(st.lists(st.integers(min_value=0, max_value=0xF), min_size=2,
                    max_size=40),
           st.integers(min_value=0, max_value=39),
           st.integers(min_value=1, max_value=0xF))
    @settings(max_examples=60)
    def test_single_word_error_always_detected(self, stream, pos, flip):
        from repro.bist.misr import Misr

        pos = pos % len(stream)
        golden, faulty = Misr(16), Misr(16)
        for w in stream:
            golden.inject(w)
        corrupted = list(stream)
        corrupted[pos] ^= flip
        for w in corrupted:
            faulty.inject(w)
        # A single-word error is a nonzero syndrome through a linear
        # machine: it can never alias to the golden signature.
        assert faulty.signature != golden.signature

    @given(st.lists(st.integers(min_value=0, max_value=0xFFFF), min_size=1,
                    max_size=30),
           st.lists(st.integers(min_value=0, max_value=0xFFFF), min_size=1,
                    max_size=30))
    @settings(max_examples=40)
    def test_signature_linear_in_stream(self, a, b):
        """The MISR is affine over GF(2):
        sig(a XOR b) XOR sig(0) == (sig(a) XOR sig(0)) XOR
        (sig(b) XOR sig(0)) for equal-length streams -- the linearity the
        aliasing analysis rests on."""
        from repro.bist.misr import Misr

        n = min(len(a), len(b))
        a, b = a[:n], b[:n]

        def sig(stream):
            m = Misr(16)
            for w in stream:
                m.inject(w)
            return m.signature

        s0 = sig([0] * n)
        lhs = sig([x ^ y for x, y in zip(a, b)]) ^ s0
        rhs = (sig(a) ^ s0) ^ (sig(b) ^ s0)
        assert lhs == rhs
