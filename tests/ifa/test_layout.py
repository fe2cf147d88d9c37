"""Tests for repro.ifa.layout."""

import pytest

from repro.ifa import layout as ifa_layout
from repro.ifa.layout import CellTileSpec, Rect, SramLayout
from repro.memory.geometry import VEQTOR4_INSTANCE, MemoryGeometry


@pytest.fixture(scope="module")
def layout():
    return SramLayout(MemoryGeometry(8, 2, 4))


class TestRect:
    def test_properties(self):
        r = Rect("metal1", 0.0, 0.0, 2.0, 1.0, "n")
        assert r.width == 2.0 and r.height == 1.0

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Rect("metal1", 1.0, 0.0, 1.0, 1.0, "n")


class TestLayoutStructure:
    def test_has_all_net_families(self, layout):
        nets = {r.net for r in layout.rects}
        assert any(n.startswith("cell[") for n in nets)
        assert "vdd" in nets and "gnd" in nets
        assert any(n.startswith("wl[") for n in nets)
        assert any(n.startswith("bl[") for n in nets)
        assert any(n.startswith("dec.") for n in nets)
        assert any(n.startswith("sa.") for n in nets)

    def test_via_kinds_complete(self, layout):
        kinds = {v.kind for v in layout.vias}
        assert kinds == {"cell_pullup", "cell_access", "bitline",
                         "decoder_input", "periphery"}

    def test_cells_tile_without_overlap(self, layout):
        """Storage-node rects of distinct cells never overlap."""
        nodes = [r for r in layout.rects if r.net.startswith("cell[")
                 and (r.net.endswith(".t") or r.net.endswith(".c"))]
        for i, a in enumerate(nodes):
            for b in nodes[i + 1:]:
                no_overlap = (a.x1 <= b.x0 or b.x1 <= a.x0
                              or a.y1 <= b.y0 or b.y1 <= a.y0)
                assert no_overlap, (a.net, b.net)

    def test_window_capped(self, monkeypatch):
        monkeypatch.setattr(ifa_layout, "MAX_WINDOW_ROWS", 8)
        monkeypatch.setattr(ifa_layout, "MAX_WINDOW_COLS", 8)
        layout = SramLayout(VEQTOR4_INSTANCE)
        assert layout.gen_rows == 8 and layout.gen_cols == 8

    def test_stats(self, layout):
        stats = layout.stats()
        assert stats["via[cell_pullup]"] == 8 * 8
        assert "rect[metal1]" in stats

class TestTileSpec:
    def test_cell_area_near_2um2(self):
        t = CellTileSpec()
        assert t.width * t.height == pytest.approx(1.92, rel=0.05)
