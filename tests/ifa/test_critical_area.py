"""Tests for repro.ifa.critical_area."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ifa import extraction
from repro.ifa.critical_area import (
    find_adjacent_pairs,
    find_adjacent_pairs_exhaustive,
    short_weight,
    total_short_weight,
)
from repro.ifa.extraction import IfaExtractor
from repro.ifa.layout import Rect, SramLayout
from repro.memory.geometry import VEQTOR4_INSTANCE


class TestWeights:
    def test_short_weight_formula(self):
        # w = L / (2 s)
        assert short_weight(0.5, 2.0) == pytest.approx(2.0)

    def test_short_weight_zero_length(self):
        assert short_weight(0.5, 0.0) == 0.0

    def test_short_weight_invalid_spacing(self):
        with pytest.raises(ValueError):
            short_weight(0.0, 1.0)

    @given(st.floats(min_value=0.1, max_value=2.0),
           st.floats(min_value=0.1, max_value=10.0))
    def test_closer_spacing_higher_weight(self, s, length):
        assert short_weight(s / 2, length) > short_weight(s, length)


class TestAdjacency:
    def test_horizontal_neighbours_found(self):
        a = Rect("metal1", 0.0, 0.0, 1.0, 1.0, "A")
        b = Rect("metal1", 1.3, 0.0, 2.3, 1.0, "B")
        pairs = find_adjacent_pairs([a, b])
        assert len(pairs) == 1
        assert pairs[0].spacing == pytest.approx(0.3)
        assert pairs[0].facing_length == pytest.approx(1.0)

    def test_vertical_neighbours_found(self):
        a = Rect("metal1", 0.0, 0.0, 2.0, 1.0, "A")
        b = Rect("metal1", 0.0, 1.4, 2.0, 2.0, "B")
        pairs = find_adjacent_pairs([a, b])
        assert len(pairs) == 1
        assert pairs[0].spacing == pytest.approx(0.4)
        assert pairs[0].facing_length == pytest.approx(2.0)

    def test_different_layers_ignored(self):
        a = Rect("metal1", 0.0, 0.0, 1.0, 1.0, "A")
        b = Rect("metal2", 1.2, 0.0, 2.2, 1.0, "B")
        assert find_adjacent_pairs([a, b]) == []

    def test_same_net_ignored(self):
        a = Rect("metal1", 0.0, 0.0, 1.0, 1.0, "N")
        b = Rect("metal1", 1.2, 0.0, 2.2, 1.0, "N")
        assert find_adjacent_pairs([a, b]) == []

    def test_far_apart_ignored(self):
        a = Rect("metal1", 0.0, 0.0, 1.0, 1.0, "A")
        b = Rect("metal1", 5.0, 0.0, 6.0, 1.0, "B")
        assert find_adjacent_pairs([a, b], max_spacing=1.0) == []

    def test_diagonal_no_overlap_ignored(self):
        a = Rect("metal1", 0.0, 0.0, 1.0, 1.0, "A")
        b = Rect("metal1", 1.2, 1.2, 2.2, 2.2, "B")
        assert find_adjacent_pairs([a, b]) == []

    def test_total_weight_accumulates(self):
        a = Rect("metal1", 0.0, 0.0, 1.0, 1.0, "A")
        b = Rect("metal1", 1.2, 0.0, 2.2, 1.0, "B")
        c = Rect("metal1", 2.4, 0.0, 3.4, 1.0, "C")
        pairs = find_adjacent_pairs([a, b, c])
        assert len(pairs) == 2
        assert total_short_weight(pairs) == pytest.approx(
            2 * short_weight(0.2, 1.0))


# ---------------------------------------------------------------------------
# Sweep == scan.  ``find_adjacent_pairs`` (sort-and-sweep) must return the
# very list ``find_adjacent_pairs_exhaustive`` (pairwise scan) returns,
# order included, so its prunes may only drop pairs ``_facing`` rejects.

GRID = 0.01
WINDOW = 600  # grid steps: coordinates span [0, 6) um
LAYERS = ("metal1", "metal2", "poly")
NETS = ("A", "B", "C", "vdd")


def _grid(k: int) -> float:
    return k * GRID


def _last_accepted(edge: float, spacing: float) -> float:
    """The largest coordinate ``far`` with ``far - edge <= spacing``."""
    far = edge + spacing
    while far - edge > spacing:
        far = math.nextafter(far, -math.inf)
    while math.nextafter(far, math.inf) - edge <= spacing:
        far = math.nextafter(far, math.inf)
    return far


@st.composite
def _rect(draw):
    x0 = draw(st.integers(0, WINDOW - 2))
    y0 = draw(st.integers(0, WINDOW - 2))
    return Rect(draw(st.sampled_from(LAYERS)),
                _grid(x0), _grid(y0),
                _grid(draw(st.integers(x0 + 1, min(WINDOW, x0 + 200)))),
                _grid(draw(st.integers(y0 + 1, min(WINDOW, y0 + 200)))),
                draw(st.sampled_from(NETS)))


@st.composite
def _neighbour(draw, parent: Rect, spacing: float):
    """A rectangle placed on a boundary case relative to ``parent``."""
    case = draw(st.sampled_from(
        ("right_at_spacing", "above_at_spacing", "right_at_last_accepted",
         "above_at_last_accepted", "touching_x", "touching_y", "same_x0",
         "same_net", "window_span")))
    net = draw(st.sampled_from(NETS))
    x0, y0, x1, y1 = parent.x0, parent.y0, parent.x1, parent.y1
    if case == "right_at_spacing":
        # Left edge at exactly ``spacing`` from the parent's right
        # edge, once as a float sum and once snapped to the grid.
        left = draw(st.sampled_from(
            (x1 + spacing, _grid(round((x1 + spacing) / GRID)))))
        return Rect(parent.layer, left, y0, left + 1.0, y1, net)
    if case == "right_at_last_accepted":
        left = _last_accepted(x1, spacing)
        return Rect(parent.layer, left, y0, left + 1.0, y1, net)
    if case == "above_at_last_accepted":
        bottom = _last_accepted(y1, spacing)
        return Rect(parent.layer, x0, bottom, x1, bottom + 0.5, net)
    if case == "above_at_spacing":
        bottom = draw(st.sampled_from(
            (y1 + spacing, _grid(round((y1 + spacing) / GRID)))))
        return Rect(parent.layer, x0, bottom, x1, bottom + 0.5, net)
    if case == "touching_x":
        return Rect(parent.layer, x1, y0, x1 + 0.3, y1, net)
    if case == "touching_y":
        return Rect(parent.layer, x0, y1, x1, y1 + 0.3, net)
    if case == "same_x0":
        return Rect(parent.layer, x0, y1 + spacing / 2, x1 + 0.2,
                    y1 + spacing / 2 + 0.4, net)
    if case == "same_net":
        return Rect(parent.layer, x1 + spacing / 2, y0,
                    x1 + spacing / 2 + 0.7, y1, parent.net)
    return Rect(parent.layer, 0.0, y1 + spacing, _grid(WINDOW),
                y1 + spacing + 0.2, net)


@st.composite
def _layouts(draw):
    spacing = _grid(draw(st.integers(1, 300)))
    rects = draw(st.lists(_rect(), min_size=1, max_size=25))
    for _ in range(draw(st.integers(0, 25))):
        parent = draw(st.sampled_from(rects))
        rects.append(draw(_neighbour(parent, spacing)))
    return draw(st.permutations(rects)), spacing


class TestSweepEquivalence:
    @settings(max_examples=300)
    @given(_layouts())
    @example(([Rect("metal1", 0.0, 0.0, 0.13, 1.0, "A"),
               Rect("metal1", _grid(113), 0.0, 2.0, 1.0, "B")], 1.0))
    def test_sweep_equals_scan(self, layout):
        rects, spacing = layout
        assert (find_adjacent_pairs(rects, spacing)
                == find_adjacent_pairs_exhaustive(rects, spacing))

    @pytest.mark.parametrize("spacing_steps", [10, 30, 100, 200, 500])
    def test_gap_equal_to_spacing(self, spacing_steps):
        # Every grid position of an edge in the window, faced at exactly
        # ``spacing`` (snapped to the grid, and at the last float
        # ``_facing`` accepts), horizontally and vertically in both
        # sweep orders.  At some positions ``b.x0 - a.x1 <= s`` while
        # ``a.x1 + s < b.x0``.
        spacing = _grid(spacing_steps)
        rects = []
        for k in range(WINDOW):
            edge = _grid(k)
            fars = [_last_accepted(edge, spacing)]
            if _grid(k + spacing_steps) != fars[0]:
                fars.append(_grid(k + spacing_steps))
            for far in fars:
                rects += [
                    Rect(f"h{k}/{far!r}", edge - 0.5, 0.0, edge, 1.0, "A"),
                    Rect(f"h{k}/{far!r}", far, 0.0, far + 0.5, 1.0, "B"),
                    Rect(f"v{k}/{far!r}", 0.0, edge - 0.5, 1.0, edge, "A"),
                    Rect(f"v{k}/{far!r}", 0.0, far, 1.0, far + 0.5, "B"),
                    # Tied x0: the upper rectangle is now swept first.
                    Rect(f"w{k}/{far!r}", 0.0, far, 1.0, far + 0.5, "B"),
                    Rect(f"w{k}/{far!r}", 0.0, edge - 0.5, 1.0, edge, "A"),
                ]
        pairs = find_adjacent_pairs(rects, spacing)
        assert pairs == find_adjacent_pairs_exhaustive(rects, spacing)
        # The last-accepted neighbour is a pair in every placement.
        assert len(pairs) >= 3 * WINDOW

    def test_touching_and_tied_edges(self):
        a = Rect("metal1", 0.0, 0.0, 1.0, 1.0, "A")
        touching = Rect("metal1", 1.0, 0.0, 2.0, 1.0, "B")
        tied = Rect("metal1", 0.0, 1.3, 1.0, 2.0, "C")
        span = Rect("metal1", -5.0, 2.2, 50.0, 2.4, "D")
        rects = [span, tied, touching, a]
        pairs = find_adjacent_pairs(rects)
        assert pairs == find_adjacent_pairs_exhaustive(rects)
        assert [(p.a.net, p.b.net) for p in pairs] == [("D", "C"),
                                                       ("C", "A")]


@pytest.fixture(scope="module")
def veqtor4_layout():
    return SramLayout(VEQTOR4_INSTANCE)


class TestVeqtor4Golden:
    def test_pair_list_equals_scan(self, veqtor4_layout):
        pairs = find_adjacent_pairs(veqtor4_layout.rects)
        assert len(pairs) == 2172
        assert pairs == find_adjacent_pairs_exhaustive(veqtor4_layout.rects)

    def test_uncalibrated_extraction_unchanged(self, veqtor4_layout,
                                               monkeypatch):
        def classes():
            extractor = IfaExtractor(VEQTOR4_INSTANCE, veqtor4_layout,
                                     calibrated=False)
            return [(c.site, c.weight, c.pair_count)
                    for c in extractor.bridge_site_classes()]

        swept = classes()
        monkeypatch.setattr(extraction, "find_adjacent_pairs",
                            find_adjacent_pairs_exhaustive)
        assert classes() == swept
