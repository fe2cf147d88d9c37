"""Tests for repro.march.element."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.march.element import AddressOrder, MarchElement
from repro.march.ops import R0, R1, W0, W1, Op, OpKind

ops_strategy = st.lists(
    st.builds(Op, st.sampled_from(list(OpKind)), st.sampled_from([0, 1])),
    min_size=1, max_size=6,
).map(tuple)

element_strategy = st.builds(
    MarchElement, st.sampled_from(list(AddressOrder)), ops_strategy)


class TestAddressOrder:
    def test_reversed_involution(self):
        for order in AddressOrder:
            assert order.reversed().reversed() == order

    def test_any_reverses_to_itself(self):
        assert AddressOrder.ANY.reversed() is AddressOrder.ANY

    @pytest.mark.parametrize("sym,expected", [
        ("⇑", AddressOrder.UP), ("^", AddressOrder.UP),
        ("up", AddressOrder.UP), ("⇓", AddressOrder.DOWN),
        ("v", AddressOrder.DOWN), ("*", AddressOrder.ANY),
        ("any", AddressOrder.ANY),
    ])
    def test_parse(self, sym, expected):
        assert AddressOrder.parse(sym) == expected

    def test_parse_invalid(self):
        with pytest.raises(ValueError):
            AddressOrder.parse("sideways")


class TestMarchElement:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MarchElement(AddressOrder.UP, ())

    def test_len_is_op_count(self):
        el = MarchElement(AddressOrder.UP, (R0, W1, R1))
        assert len(el) == 3

    def test_reads_writes_partition(self):
        el = MarchElement(AddressOrder.UP, (R0, W1, R1))
        assert el.reads == (R0, R1)
        assert el.writes == (W1,)

    def test_final_write_value(self):
        assert MarchElement(AddressOrder.UP, (R0, W1)).final_write_value() == 1
        assert MarchElement(AddressOrder.UP, (R0,)).final_write_value() is None
        assert MarchElement(AddressOrder.UP,
                            (W1, W0)).final_write_value() == 0

    def test_entry_state(self):
        assert MarchElement(AddressOrder.UP, (R0, W1)).entry_state() == 0
        assert MarchElement(AddressOrder.UP, (W1, R1)).entry_state() is None

    def test_consistency(self):
        good = MarchElement(AddressOrder.UP, (R0, W1, R1, W0, R0))
        bad = MarchElement(AddressOrder.UP, (W1, R0))
        assert good.is_consistent()
        assert not bad.is_consistent()

    def test_reads_before_first_write_not_checked(self):
        el = MarchElement(AddressOrder.UP, (R1, W0))
        assert el.is_consistent()


class TestTransforms:

    @given(element_strategy)
    def test_reversed_order_involution(self, el):
        assert el.reversed_order().reversed_order() == el


class TestNotationRoundtrip:
    @given(element_strategy)
    def test_parse_roundtrip(self, el):
        assert MarchElement.parse(el.notation) == el

    def test_parse_ascii(self):
        el = MarchElement.parse("^(r0, w1)")
        assert el.order == AddressOrder.UP
        assert el.ops == (R0, W1)

    @pytest.mark.parametrize("text", ["(r0)", "^r0", "^()", "?(r0)"])
    def test_parse_invalid(self, text):
        with pytest.raises(ValueError):
            MarchElement.parse(text)
