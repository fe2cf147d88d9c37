"""Tests for repro.march.sequencer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.march.element import AddressOrder
from repro.march.library import MATS_PLUS_PLUS, TEST_11N
from repro.march.sequencer import (
    DataBackground,
    MarchSequencer,
    background_bit,
    bit_rotation_map,
)


class TestCycleStream:
    def test_cycle_count(self):
        seq = MarchSequencer(16)
        stream = list(seq.run(TEST_11N))
        assert len(stream) == seq.cycle_count(TEST_11N) == 11 * 16

    def test_cycles_consecutive_from_zero(self):
        stream = list(MarchSequencer(8).run(MATS_PLUS_PLUS))
        assert [c.cycle for c in stream] == list(range(len(stream)))

    def test_up_element_ascends(self):
        seq = MarchSequencer(4)
        stream = [c for c in seq.run(MATS_PLUS_PLUS) if c.element_index == 1]
        addresses = [c.address for c in stream]
        # Element 1 is ⇑(r0,w1): two ops per address, ascending.
        assert addresses == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_down_element_descends(self):
        seq = MarchSequencer(4)
        stream = [c for c in seq.run(MATS_PLUS_PLUS) if c.element_index == 2]
        assert stream[0].address == 3
        assert stream[-1].address == 0

    def test_every_address_visited_per_element(self):
        seq = MarchSequencer(8)
        for ei in range(len(TEST_11N.elements)):
            addresses = {c.address for c in seq.run(TEST_11N)
                         if c.element_index == ei}
            assert addresses == set(range(8))

    def test_op_indices_within_element(self):
        stream = list(MarchSequencer(2).run(TEST_11N))
        for c in stream:
            assert 0 <= c.op_index < len(TEST_11N.elements[c.element_index])

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            MarchSequencer(0)
        with pytest.raises(ValueError):
            MarchSequencer(8, columns=0)


class TestDataBackground:
    def test_solid_is_zero(self):
        assert all(background_bit(DataBackground.SOLID, a, 4) == 0
                   for a in range(16))

    def test_checkerboard(self):
        assert background_bit(DataBackground.CHECKERBOARD, 0, 4) == 0
        assert background_bit(DataBackground.CHECKERBOARD, 1, 4) == 1
        assert background_bit(DataBackground.CHECKERBOARD, 4, 4) == 1
        assert background_bit(DataBackground.CHECKERBOARD, 5, 4) == 0

    def test_row_stripes(self):
        assert background_bit(DataBackground.ROW_STRIPES, 3, 4) == 0
        assert background_bit(DataBackground.ROW_STRIPES, 4, 4) == 1

    def test_column_stripes(self):
        assert background_bit(DataBackground.COLUMN_STRIPES, 0, 4) == 0
        assert background_bit(DataBackground.COLUMN_STRIPES, 1, 4) == 1

    def test_values_resolve_against_background(self):
        seq = MarchSequencer(4, columns=2)
        stream = list(seq.run(MATS_PLUS_PLUS, DataBackground.CHECKERBOARD))
        for c in stream:
            bg = background_bit(DataBackground.CHECKERBOARD, c.address, 2)
            assert c.value == c.op.value ^ bg


class TestBitRotation:
    @given(st.integers(min_value=1, max_value=10),
           st.integers(min_value=0, max_value=9))
    @settings(max_examples=40)
    def test_rotation_is_bijection(self, bits, fast_bit):
        if fast_bit >= bits:
            fast_bit = fast_bit % bits
        mapper = bit_rotation_map(bits, fast_bit)
        n = 1 << bits
        image = {mapper(i) for i in range(n)}
        assert image == set(range(n))

    def test_fast_bit_toggles_every_step(self):
        mapper = bit_rotation_map(4, 2)
        seq = [mapper(i) for i in range(16)]
        # Counter bit 0 lands on address bit 2: address bit 2 toggles on
        # every counter increment -- the MOVI sensitisation.
        for i in range(15):
            assert ((seq[i] ^ seq[i + 1]) >> 2) & 1 == 1

    def test_fast_bit_zero_is_identity(self):
        mapper = bit_rotation_map(5, 0)
        assert [mapper(i) for i in range(32)] == list(range(32))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            bit_rotation_map(4, 4)
        with pytest.raises(ValueError):
            bit_rotation_map(0, 0)
