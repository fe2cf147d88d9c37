"""Tests for repro.march.ops."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.march.ops import R0, R1, W0, W1, Op, OpKind


class TestOpBasics:
    def test_singletons(self):
        assert R0.is_read and not R0.is_write
        assert W1.is_write and not W1.is_read
        assert R1.value == 1
        assert W0.value == 0

    def test_invalid_value_rejected(self):
        with pytest.raises(ValueError):
            Op(OpKind.READ, 2)

    def test_notation(self):
        assert R0.notation == "r0"
        assert W1.notation == "w1"
        assert str(R1) == "r1"

    def test_equality_and_hash(self):
        assert Op(OpKind.READ, 0) == R0
        assert len({R0, R1, W0, W1}) == 4


class TestParse:
    @pytest.mark.parametrize("text,expected", [
        ("r0", R0), ("r1", R1), ("w0", W0), ("w1", W1),
        ("R0", R0), (" W1 ", W1),
    ])
    def test_parse_valid(self, text, expected):
        assert Op.parse(text) == expected

    @pytest.mark.parametrize("text", ["", "x0", "r2", "rw", "r01", "read0"])
    def test_parse_invalid(self, text):
        with pytest.raises(ValueError):
            Op.parse(text)

    @given(st.sampled_from(["r", "w"]), st.sampled_from([0, 1]))
    def test_parse_roundtrip(self, kind, value):
        op = Op(OpKind(kind), value)
        assert Op.parse(op.notation) == op
