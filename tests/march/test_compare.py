"""Tests for repro.march.compare (efficiency analysis)."""

import pytest

from repro.march import compare
from repro.march.compare import (
    efficiency_frontier,
    render_scores,
    score_tests,
)
from repro.march.library import (
    MARCH_CM,
    MARCH_SS,
    MATS,
    MATS_PLUS_PLUS,
    TEST_11N,
)


@pytest.fixture(scope="module")
def scores():
    return score_tests([MATS, MATS_PLUS_PLUS, MARCH_CM, TEST_11N, MARCH_SS],
                       n_cells=6)


class TestScoring:
    def test_score_bounds(self, scores):
        for s in scores:
            assert 0.0 <= s.score <= 1.0
            assert s.efficiency <= s.score

    def test_stronger_test_scores_higher(self, scores):
        by_name = {s.test_name: s for s in scores}
        assert by_name["March C-"].score > by_name["MATS"].score
        assert by_name["11N"].score > by_name["March C-"].score  # dRDF

    def test_weights_shift_scores(self, monkeypatch):
        monkeypatch.setattr(compare, "DEFAULT_CLASSES", ("SAF", "dRDF"))
        unweighted = score_tests([MARCH_CM, TEST_11N], n_cells=6)
        monkeypatch.setattr(compare, "CLASS_WEIGHTS", {"dRDF": 10.0})
        dyn_heavy = score_tests([MARCH_CM, TEST_11N], n_cells=6)
        gap_u = (unweighted[1].score - unweighted[0].score)
        gap_w = (dyn_heavy[1].score - dyn_heavy[0].score)
        assert gap_w > gap_u  # 11N's dynamic edge counts for more

    def test_validation(self):
        with pytest.raises(ValueError):
            score_tests([], n_cells=6)


class TestFrontier:
    def test_frontier_sorted_and_monotone(self, scores):
        frontier = efficiency_frontier(scores)
        ks = [s.complexity for s in frontier]
        cov = [s.score for s in frontier]
        assert ks == sorted(ks)
        assert cov == sorted(cov)

    def test_dominated_tests_excluded(self, scores):
        """March SS (22N) scores no higher than 11N (11N ops) on this
        mix: it must not be on the frontier."""
        frontier = {s.test_name for s in efficiency_frontier(scores)}
        assert "March SS" not in frontier

    def test_papers_test_on_frontier(self, scores):
        """The quantitative vindication of the paper's choice: the 11N
        production test is efficiency-undominated."""
        frontier = {s.test_name for s in efficiency_frontier(scores)}
        assert "11N" in frontier


class TestRendering:
    def test_table_contains_tests_and_classes(self, scores):
        text = render_scores(scores)
        assert "11N" in text and "SAF" in text and "eff" in text
