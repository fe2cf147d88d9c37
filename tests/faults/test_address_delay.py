"""Tests for repro.faults.address_delay (decoder delay faults)."""

import pytest

from repro.faults.address_delay import (
    AddressTransitionDelayFault,
    generate_address_delay_faults,
)
from repro.faults.models import MemoryState


def make_fault(bit=1, rising=True, bits=4, gap=1):
    return AddressTransitionDelayFault(bit=bit, rising=rising,
                                       address_bits=bits,
                                       max_gap_cycles=gap)


@pytest.fixture
def mem():
    m = MemoryState(16)
    m.bits.fill(0)
    return m


class TestHazardClassification:
    def test_single_bit_toggle_redirects(self, mem):
        f = make_fault(bit=1, rising=True)
        mem.set(0, 1)   # previous address holds 1
        f.read(mem, 0, 0)
        # 0 -> 2 toggles only bit 1, rising.
        assert f.read(mem, 2, 1) == 1   # reads cell 0, not cell 2

    def test_wrong_polarity_harmless(self, mem):
        f = make_fault(bit=1, rising=False)
        mem.set(0, 1)
        f.read(mem, 0, 0)
        assert f.read(mem, 2, 1) == 0   # rising toggle, fault is falling

    def test_multi_bit_transition_harmless(self, mem):
        """Carry transitions deselect the old line: no fault."""
        f = make_fault(bit=2, rising=True)
        mem.set(3, 1)
        f.read(mem, 3, 0)
        # 3 -> 4 flips bits 0,1,2 together.
        assert f.read(mem, 4, 1) == 0

    def test_gap_defuses_hazard(self, mem):
        f = make_fault(bit=1, rising=True, gap=1)
        mem.set(0, 1)
        f.read(mem, 0, 0)
        assert f.read(mem, 2, 5) == 0   # not back-to-back

    def test_write_redirected(self, mem):
        f = make_fault(bit=0, rising=True)
        f.write(mem, 0, 0, 0)
        f.write(mem, 1, 1, 1)   # single-bit rising toggle: lands on 0
        assert mem.get(0) == 1
        assert mem.get(1) == 0

    def test_reset_clears_history(self, mem):
        f = make_fault(bit=1, rising=True)
        mem.set(0, 1)
        f.read(mem, 0, 0)
        f.reset()
        assert f.read(mem, 2, 1) == 0


class TestValidation:
    def test_bit_range(self):
        with pytest.raises(ValueError):
            make_fault(bit=4, bits=4)

    def test_gap_positive(self):
        with pytest.raises(ValueError):
            make_fault(gap=0)

    def test_universe_size(self):
        faults = generate_address_delay_faults(5)
        assert len(faults) == 10
        assert {(f.bit, f.rising) for f in faults} == {
            (b, r) for b in range(5) for r in (True, False)}


class TestMoviGap:
    """The [Azimane 04] result: linear marching misses high-bit delay
    faults; MOVI catches all of them."""

    def test_linear_catches_only_bit0(self):
        from repro.march.library import TEST_11N
        from repro.tester.movi import MoviExecutor

        ex = MoviExecutor(4)
        detected_bits = set()
        for f in generate_address_delay_faults(4):
            if ex.linear_reference(TEST_11N, f).detected:
                detected_bits.add(f.bit)
        assert detected_bits == {0}

    def test_movi_catches_everything(self):
        from repro.march.library import TEST_11N
        from repro.tester.movi import MoviExecutor

        ex = MoviExecutor(4)
        for f in generate_address_delay_faults(4):
            assert ex.run(TEST_11N, f).detected, (f.bit, f.rising)

    def test_detecting_rotation_is_the_faulty_bit(self):
        from repro.march.library import TEST_11N
        from repro.tester.movi import MoviExecutor

        ex = MoviExecutor(4)
        fault = make_fault(bit=2, rising=True)
        result = ex.run(TEST_11N, fault)
        assert any(r.detected for r in result.runs if r.fast_bit == 2)
