"""Tests for repro.faults.primitives (<S/F/R> notation)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.faults.primitives import FaultPrimitive, SensitisingSequence
from repro.march.ops import Op, OpKind

ops_st = st.lists(
    st.builds(Op, st.sampled_from(list(OpKind)), st.sampled_from([0, 1])),
    min_size=0, max_size=3,
).map(tuple)

seq_st = st.builds(SensitisingSequence,
                   st.sampled_from([None, 0, 1]), ops_st)


class TestSensitisingSequence:
    def test_parse_state_only(self):
        s = SensitisingSequence.parse("1")
        assert s.initial_state == 1
        assert not s.operations

    def test_parse_state_plus_ops(self):
        s = SensitisingSequence.parse("0w1r1")
        assert s.initial_state == 0
        assert [op.notation for op in s.operations] == ["w1", "r1"]

    def test_parse_dash_is_empty(self):
        s = SensitisingSequence.parse("-")
        assert s.initial_state is None
        assert not s.operations

    def test_invalid_state(self):
        with pytest.raises(ValueError):
            SensitisingSequence(2, ())

    def test_parse_garbage(self):
        with pytest.raises(ValueError):
            SensitisingSequence.parse("0x1")

    @given(seq_st)
    def test_notation_roundtrip(self, seq):
        assert SensitisingSequence.parse(seq.notation) == seq


class TestFaultPrimitive:
    def test_parse_single_cell(self):
        fp = FaultPrimitive.parse("<0w1/0/->")
        assert fp.victim.initial_state == 0
        assert fp.faulty_value == 0
        assert fp.read_output is None
        assert not fp.is_coupling

    def test_parse_two_cell(self):
        fp = FaultPrimitive.parse("<1; 0/1/->")
        assert fp.is_coupling
        assert fp.aggressor.initial_state == 1
        assert fp.victim.initial_state == 0

    def test_parse_with_read_output(self):
        fp = FaultPrimitive.parse("<0r0/1/1>")
        assert fp.read_output == 1

    def test_read_output_requires_trailing_read(self):
        with pytest.raises(ValueError, match="read"):
            FaultPrimitive.parse("<0w1/0/1>")

    def test_dynamic_detection(self):
        static = FaultPrimitive.parse("<0r0/1/1>")
        dynamic = FaultPrimitive.parse("<0w1r1/0/1>")
        assert static.operation_count == 1
        assert dynamic.operation_count == 2

    def test_invalid_faulty_value(self):
        with pytest.raises(ValueError):
            FaultPrimitive(SensitisingSequence(0), 2)

    def test_parse_rejects_malformed(self):
        for text in ("0w1/0/-", "<0w1/0>", "<//>"):
            with pytest.raises(ValueError):
                FaultPrimitive.parse(text)

    @pytest.mark.parametrize("notation", [
        "<0/1/->",        # SA1
        "<1/0/->",        # SA0
        "<0w1/0/->",      # TF up
        "<1w0/1/->",      # TF down
        "<0r0/1/1>",      # RDF
        "<0r0/1/0>",      # DRDF
        "<0r0/0/1>",      # IRF
        "<0w0/1/->",      # WDF
        "<0w1; 0/1/->",   # CFid
        "<1; 0/1/->",     # CFst
        "<0w1r1/0/1>",    # dynamic
        "<0r0r0/1/1>",    # dynamic double read
    ])
    def test_standard_primitives_roundtrip(self, notation):
        fp = FaultPrimitive.parse(notation)
        assert FaultPrimitive.parse(fp.notation) == fp
