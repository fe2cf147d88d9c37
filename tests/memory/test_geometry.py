"""Tests for repro.memory.geometry."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.geometry import VEQTOR4_INSTANCE, MemoryGeometry

geom_st = st.builds(
    MemoryGeometry,
    rows=st.integers(min_value=1, max_value=64),
    columns=st.integers(min_value=1, max_value=8),
    bits_per_word=st.integers(min_value=1, max_value=8),
    blocks=st.integers(min_value=1, max_value=3),
)


class TestSizes:
    def test_veqtor_instance_is_256kbit(self):
        assert VEQTOR4_INSTANCE.bits == 256 * 1024

    def test_derived_counts(self):
        g = MemoryGeometry(16, 4, 8, blocks=2)
        assert g.words_per_block == 64
        assert g.words == 128
        assert g.bits_per_block == 512
        assert g.bits == 1024
        assert g.bitlines_per_block == 32

    def test_address_bits(self):
        g = MemoryGeometry(16, 4, 8)
        assert g.address_bits == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            MemoryGeometry(0, 1, 1)
        with pytest.raises(ValueError):
            MemoryGeometry(1, 1, -1)

    def test_area_scales_with_bits(self):
        small = MemoryGeometry(16, 4, 8)
        big = MemoryGeometry(32, 4, 8)
        assert big.array_area_um2() == pytest.approx(
            2.0 * small.array_area_um2())


class TestAddressMapping:
    @given(geom_st, st.integers(min_value=0, max_value=100000))
    @settings(max_examples=80)
    def test_split_roundtrip(self, g, raw):
        address = raw % g.words
        block, row, col = g.split_address(address)
        assert block * g.words_per_block + row * g.columns + col == address
        assert 0 <= block < g.blocks
        assert 0 <= row < g.rows
        assert 0 <= col < g.columns

    @given(geom_st)
    @settings(max_examples=40)
    def test_cell_index_is_bijective(self, g):
        seen = set()
        for address in range(g.words):
            for bit in range(g.bits_per_word):
                seen.add(g.cell_index(address, bit))
        assert len(seen) == g.bits
        assert min(seen) == 0 and max(seen) == g.bits - 1

    def test_out_of_range(self):
        g = MemoryGeometry(4, 2, 2)
        with pytest.raises(ValueError):
            g.split_address(g.words)
        with pytest.raises(ValueError):
            g.bit_position(0, 2)


class TestInterleaving:
    def test_bits_of_one_word_not_adjacent(self):
        """Column-mux interleaving: consecutive bits of a word are
        `columns` bitlines apart (soft-error / coupling robustness)."""
        g = MemoryGeometry(8, 4, 4)
        _, _, bl0 = g.bit_position(0, 0)
        _, _, bl1 = g.bit_position(0, 1)
        assert abs(bl1 - bl0) == g.columns

    def test_same_row_for_all_bits(self):
        g = MemoryGeometry(8, 4, 4)
        rows = {g.bit_position(5, b)[1] for b in range(4)}
        assert len(rows) == 1
