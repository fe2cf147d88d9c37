"""Tests for repro.march.test (MarchTest container)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.march.element import AddressOrder, MarchElement
from repro.march.library import MARCH_CM, MATS_PLUS_PLUS, STANDARD_TESTS, TEST_11N
from repro.march.ops import R0, R1, W0, W1
from repro.march.test import MarchTest


class TestComplexity:
    def test_11n_is_11n(self):
        assert TEST_11N.complexity == 11

    def test_march_cm_is_10n(self):
        assert MARCH_CM.complexity == 10

    def test_matspp_is_6n(self):
        assert MATS_PLUS_PLUS.complexity == 6

    def test_operation_count(self):
        assert TEST_11N.operation_count(1024) == 11 * 1024

    def test_read_write_split(self):
        assert (TEST_11N.read_count() + TEST_11N.write_count()
                == TEST_11N.complexity)


class TestConsistency:
    @pytest.mark.parametrize("name", sorted(STANDARD_TESTS))
    def test_all_library_tests_consistent(self, name):
        assert STANDARD_TESTS[name].is_consistent(), name

    def test_inconsistent_entry_state_detected(self):
        bad = MarchTest("bad", (
            MarchElement(AddressOrder.ANY, (W0,)),
            MarchElement(AddressOrder.UP, (R1,)),   # expects 1, cells hold 0
        ))
        assert not bad.is_consistent()

    def test_uninitialised_read_detected(self):
        bad = MarchTest("bad", (MarchElement(AddressOrder.UP, (R0,)),))
        assert not bad.is_consistent()


class TestTransitions:
    def test_11n_transition_count(self):
        # w0(init); w1; w0; w1; w0 -> 4 transitions after the init write.
        assert TEST_11N.transition_count() == 4

    def test_mats_transitions(self):
        from repro.march.library import MATS
        assert MATS.transition_count() == 1


class TestSerialisation:
    def test_parse_notation(self):
        t = MarchTest.parse("mini", "*(w0); ^(r0,w1); v(r1,w0)")
        assert t.complexity == 5
        assert len(t) == 3
        assert t.is_consistent()

    @pytest.mark.parametrize("name", sorted(STANDARD_TESTS))
    def test_notation_roundtrip_all_library(self, name):
        t = STANDARD_TESTS[name]
        reparsed = MarchTest.parse(t.name, t.notation)
        assert reparsed.elements == t.elements

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MarchTest("empty", ())


class TestElevenNReconstruction:
    def test_contains_papers_bitmap_elements(self):
        """Sections 4.1/4.2 name elements {R0W1}, {R1W0R0}, {R0W1R1}."""
        notations = ["".join(op.notation for op in el.ops)
                     for el in TEST_11N.elements]
        assert "r0w1" in notations
        assert "r1w0r0" in notations
        assert "r0w1r1" in notations

    def test_marches_both_directions(self):
        orders = {el.order for el in TEST_11N.elements}
        assert AddressOrder.UP in orders
        assert AddressOrder.DOWN in orders
