"""Tests for repro.march.synthesis."""

import pytest

from repro.faults.coverage import class_coverage
from repro.march.element import AddressOrder
from repro.march.synthesis import (
    MarchSynthesizer,
    candidate_elements,
    classical_universe,
)
from repro.march.validation import is_valid


class TestCandidatePool:
    def test_unknown_state_requires_leading_write(self):
        for el in candidate_elements(None):
            assert el.ops[0].is_write

    def test_known_state_allows_matching_reads(self):
        pool = candidate_elements(0)
        assert any(el.ops[0].is_read and el.ops[0].value == 0
                   for el in pool)
        assert not any(el.ops[0].is_read and el.ops[0].value == 1
                       for el in pool)

    def test_all_internally_consistent(self):
        for state in (None, 0, 1):
            for el in candidate_elements(state):
                assert el.is_consistent(), el.notation

    def test_no_pure_nop_elements(self):
        # e.g. from state 0, the element (w0) changes nothing and reads
        # nothing: useless, must be excluded.
        for el in candidate_elements(0, max_ops=1):
            assert not (len(el) == 1 and el.ops[0].is_write
                        and el.ops[0].value == 0)

    def test_both_orders_present(self):
        orders = {el.order for el in candidate_elements(None)}
        assert orders == {AddressOrder.UP, AddressOrder.DOWN}


class TestSynthesis:
    def test_full_saf_tf_coverage(self):
        synth = MarchSynthesizer(n_cells=6)
        result = synth.synthesise(classical_universe(6, ("SAF", "TF")),
                                  "S1")
        assert result.coverage == 1.0
        assert result.test.is_consistent()
        assert is_valid(result.test)

    def test_synthesised_beats_bound(self):
        """SAF+TF coverage must not need more than MATS++'s 6N."""
        synth = MarchSynthesizer(n_cells=6)
        result = synth.synthesise(classical_universe(6, ("SAF", "TF")))
        assert result.test.complexity <= 6

    def test_four_class_synthesis_matches_simulator(self):
        synth = MarchSynthesizer(n_cells=6)
        universe = classical_universe(6, ("SAF", "TF", "AF", "CFin"))
        result = synth.synthesise(universe, "S4")
        assert result.coverage == 1.0
        # Independent cross-check through the coverage analyser.
        for fc in ("SAF", "TF", "AF", "CFin"):
            assert class_coverage(result.test, fc, 6).coverage == 1.0, fc

    def test_history_accounts_for_detections(self):
        synth = MarchSynthesizer(n_cells=6)
        universe = classical_universe(6, ("SAF",))
        result = synth.synthesise(universe)
        assert sum(n for _, n in result.history) == result.detected

    def test_element_cap_respected(self):
        synth = MarchSynthesizer(n_cells=6, max_elements=2)
        universe = classical_universe(6, ("SAF", "TF", "CFin"))
        result = synth.synthesise(universe)
        assert len(result.test) <= 2

    def test_empty_universe_rejected(self):
        with pytest.raises(ValueError):
            MarchSynthesizer(n_cells=6).synthesise([])

    def test_validation(self):
        with pytest.raises(ValueError):
            MarchSynthesizer(n_cells=1)


class TestTargetingDynamicFaults:
    def test_synthesis_against_dynamic_universe(self):
        """The paper's future work: algorithms for soft defects.  The
        synthesiser targets w-r dynamic faults and produces a test with
        read-after-write pairs."""
        from repro.faults.dynamic import make_dynamic_rdf

        factories = []
        for cell in range(6):
            for state in (0, 1):
                factories.append(
                    lambda cell=cell, state=state: make_dynamic_rdf(
                        cell, state))
        synth = MarchSynthesizer(n_cells=6)
        result = synth.synthesise(factories, "Synth-dyn")
        assert result.coverage == 1.0
        # The winning test must contain a write immediately followed by
        # a read somewhere (the sensitising pair).
        has_wr_pair = any(
            a.is_write and b.is_read
            for el in result.test.elements
            for a, b in zip(el.ops, el.ops[1:])
        )
        assert has_wr_pair
