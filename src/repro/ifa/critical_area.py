"""Critical-area computation for shorts and opens.

Classic inductive-fault-analysis machinery [Shen/Maly/Ferguson 85]: for a
circular spot defect of diameter ``x``, the *critical area* ``A(x)`` is
the region where the defect centre causes a fault.  Integrating over the
defect size distribution (the standard ``k / x^3`` tail) yields a
per-site likelihood weight:

* **shorts** between two parallel edges of length ``L`` at spacing
  ``s``: ``A(x) = L * (x - s)`` for ``x > s``, giving weight
  ``w = ∫ A(x) k x^-3 dx = k * L / (2 s)``;
* **opens** cutting a wire of width ``w_w`` and length ``L``:
  ``A(x) = L * (x - w_w)`` for ``x > w_w``, weight ``k * L / (2 w_w)``
  -- plus per-via weights for via/contact opens.

Only relative weights matter downstream (they are normalised into a
probability mix), so ``k`` is taken as 1.

Exact-path equivalence: tests/ifa/test_critical_area.py
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ifa.layout import Rect


@dataclass(frozen=True)
class AdjacentPair:
    """Two same-layer rectangles facing each other.

    Attributes:
        a, b: The rectangles.
        spacing: Edge-to-edge distance (um).
        facing_length: Overlap length of the facing edges (um).
    """

    a: Rect
    b: Rect
    spacing: float
    facing_length: float


def short_weight(spacing: float, facing_length: float) -> float:
    """Relative likelihood of a short between two facing edges."""
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    if facing_length <= 0:
        return 0.0
    return facing_length / (2.0 * spacing)


def find_adjacent_pairs(rects: list[Rect], max_spacing: float = 1.0,
                        ) -> list[AdjacentPair]:
    """All same-layer, different-net facing pairs within ``max_spacing``.

    A sort-and-sweep per layer.  The layer's rectangles are visited in
    order of ``x0``; an *active* list holds those whose right edge may
    still lie within ``max_spacing`` of a later left edge, and a
    rectangle leaves it for good once ``b.x0 - a.x1 > max_spacing``
    (later ``b.x0`` only grow).  Each active rectangle that survives
    the vertical prune ``a.y0 - b.y1 > max_spacing or b.y0 - a.y1 >
    max_spacing`` and sits on a different net becomes a candidate.  The
    candidates, as original in-layer indices ``i < j``, are sorted and
    handed to :func:`_facing`, which stays the only judge of adjacency;
    both horizontal and vertical adjacency are considered, taking the
    orientation with the larger facing length.  The result is therefore
    the same list, in the same order, as the pairwise scan
    :func:`find_adjacent_pairs_exhaustive`.

    Cost: O(n log n) for the sort plus O(n * k) for the sweep, where
    ``k`` is the active-list length -- the rectangles whose x extent
    reaches within ``max_spacing`` of the sweep line -- and one
    ``_facing`` call per candidate, instead of n^2 / 2 ``_facing``
    calls.

    The prunes must reject only pairs ``_facing`` rejects.  They
    therefore use ``_facing``'s own subtractions (``b.x0 - a.x1``,
    never ``a.x1 + max_spacing >= b.x0``): on grid coordinates the two
    forms round differently when a gap equals ``max_spacing``.
    Equivalence with the scan is pinned by the tests named in the
    module's ``Exact-path equivalence`` marker.
    """
    pairs: list[AdjacentPair] = []
    for layer_rects in _by_layer(rects).values():
        xs = [r.x0 for r in layer_rects]
        order = sorted(range(len(xs)), key=xs.__getitem__)
        active: list[tuple[int, Rect]] = []
        candidates: list[tuple[int, int]] = []
        for j in order:
            b = layer_rects[j]
            bx0, by0, by1, bnet = b.x0, b.y0, b.y1, b.net
            still_active = []
            for entry in active:
                i, a = entry
                if bx0 - a.x1 > max_spacing:
                    continue
                still_active.append(entry)
                if (a.net == bnet or a.y0 - by1 > max_spacing
                        or by0 - a.y1 > max_spacing):
                    continue
                candidates.append((i, j) if i < j else (j, i))
            still_active.append((j, b))
            active = still_active
        candidates.sort()
        for i, j in candidates:
            pair = _facing(layer_rects[i], layer_rects[j], max_spacing)
            if pair is not None:
                pairs.append(pair)
    return pairs


def find_adjacent_pairs_exhaustive(rects: list[Rect],
                                   max_spacing: float = 1.0,
                                   ) -> list[AdjacentPair]:
    """The pairwise O(n^2) scan :func:`find_adjacent_pairs` replaces.

    Exists only as the oracle of the equivalence tests and of the
    ``fastpath`` benchmark's ``adjacency`` row; nothing else calls it.
    """
    pairs: list[AdjacentPair] = []
    for layer_rects in _by_layer(rects).values():
        n = len(layer_rects)
        for i in range(n):
            for j in range(i + 1, n):
                a, b = layer_rects[i], layer_rects[j]
                if a.net == b.net:
                    continue
                pair = _facing(a, b, max_spacing)
                if pair is not None:
                    pairs.append(pair)
    return pairs


def _by_layer(rects: list[Rect]) -> dict[str, list[Rect]]:
    """Rectangles grouped by layer, in first-appearance order."""
    by_layer: dict[str, list[Rect]] = {}
    for r in rects:
        by_layer.setdefault(r.layer, []).append(r)
    return by_layer


def _facing(a: Rect, b: Rect, max_spacing: float) -> AdjacentPair | None:
    """Geometric adjacency test for two rectangles."""
    # Horizontal gap (a left of b or vice versa) with vertical overlap.
    gap_x = max(b.x0 - a.x1, a.x0 - b.x1)
    overlap_y = min(a.y1, b.y1) - max(a.y0, b.y0)
    # Vertical gap with horizontal overlap.
    gap_y = max(b.y0 - a.y1, a.y0 - b.y1)
    overlap_x = min(a.x1, b.x1) - max(a.x0, b.x0)

    candidates = []
    if 0.0 < gap_x <= max_spacing and overlap_y > 0.0:
        candidates.append((gap_x, overlap_y))
    if 0.0 < gap_y <= max_spacing and overlap_x > 0.0:
        candidates.append((gap_y, overlap_x))
    if not candidates:
        return None
    spacing, length = max(candidates, key=lambda c: c[1])
    return AdjacentPair(a, b, spacing, length)


def total_short_weight(pairs: list[AdjacentPair]) -> float:
    return sum(short_weight(p.spacing, p.facing_length) for p in pairs)
