"""Bridge and open site extraction from the synthetic layout.

Bridges: adjacent same-layer net pairs from critical-area analysis are
classified into the :class:`~repro.defects.models.BridgeSite` taxonomy by
their net names (storage node vs rail, bit line vs bit line, ...).
Opens: via sites and long wire segments map onto
:class:`~repro.defects.models.OpenSite` classes.

Raw geometric weights from a small synthetic window are structurally
correct but not electrically calibrated; the default ``calibrated=True``
mode rescales the class totals onto the mixes below, which were fitted
so the downstream campaign reproduces the paper's Table 1 pattern (see
DESIGN.md, "Calibration targets").  ``calibrated=False`` exposes the raw
geometry for ablation.

Defects are drawn from per-kind tables cached on the extractor
(:meth:`IfaExtractor.draw_table`), in the draw order of the per-defect
``choice(p=...)`` oracle, :func:`sample_defects_reference`.

Exact-path equivalence: tests/ifa/test_extraction.py
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.defects.distribution import ChoiceTable
from repro.defects.models import (
    SITE_CODE,
    BridgeSite,
    Defect,
    DefectArrays,
    DefectKind,
    OpenSite,
)
from repro.ifa.critical_area import AdjacentPair, find_adjacent_pairs, short_weight
from repro.ifa.layout import SramLayout
from repro.memory.geometry import MemoryGeometry

#: Calibrated bridge site-class mix (fractions of extracted bridge
#: likelihood).  Fitted against the paper's Table 1; the geometric
#: extraction independently confirms the *ordering* (rail adjacency
#: dominates).
BRIDGE_SITE_MIX: dict[BridgeSite, float] = {
    BridgeSite.CELL_NODE_RAIL: 0.7900,
    BridgeSite.CELL_NODE_NODE: 0.0884,
    BridgeSite.DECODER_LOGIC: 0.0661,
    BridgeSite.BITLINE_BITLINE: 0.0239,
    BridgeSite.WORDLINE_CELL: 0.0173,
    BridgeSite.PERIPHERY_METAL: 0.0104,
    BridgeSite.EQUIVALENT_NODE: 0.0039,
}

#: Calibrated open site-class mix.
OPEN_SITE_MIX: dict[OpenSite, float] = {
    OpenSite.BITLINE_SEGMENT: 0.20,
    OpenSite.CELL_ACCESS: 0.15,
    OpenSite.DECODER_INPUT: 0.20,
    OpenSite.CELL_PULLUP: 0.25,
    OpenSite.PERIPHERY_PATH: 0.20,
}

#: Per-class lognormal spread of the site strength factor.  The rail
#: class is tight (every cell sees the same rails); periphery classes
#: are broad (diverse drivers and wire lengths).
STRENGTH_SIGMA: dict[BridgeSite | OpenSite, float] = {
    BridgeSite.CELL_NODE_RAIL: 0.096,
    BridgeSite.CELL_NODE_NODE: 0.70,
    BridgeSite.WORDLINE_CELL: 0.50,
    BridgeSite.BITLINE_BITLINE: 0.50,
    BridgeSite.DECODER_LOGIC: 0.50,
    BridgeSite.PERIPHERY_METAL: 0.40,
    BridgeSite.EQUIVALENT_NODE: 0.10,
    OpenSite.BITLINE_SEGMENT: 0.40,
    OpenSite.CELL_ACCESS: 0.40,
    OpenSite.CELL_PULLUP: 0.40,
    OpenSite.DECODER_INPUT: 0.50,
    OpenSite.PERIPHERY_PATH: 0.40,
}


@dataclass(frozen=True)
class ExtractedSiteClass:
    """Aggregate of one site class after extraction.

    Attributes:
        site: The class.
        weight: Normalised likelihood share.
        pair_count: Number of geometric instances found (bridge pairs or
            vias) in the generated window.
    """

    site: BridgeSite | OpenSite
    weight: float
    pair_count: int


@dataclass(frozen=True)
class SiteDrawTable:
    """One defect kind's site classes, ready to draw from.

    Attributes:
        sites: The site classes, in draw order.
        choice: The CDF of their weights, normalised by their sum
            first as in :func:`sample_defects_reference`.
        sigmas: ``STRENGTH_SIGMA`` of each site, for array draws.
        codes: ``SITE_CODE`` of each site, for array draws.
    """

    sites: tuple[BridgeSite | OpenSite, ...]
    choice: ChoiceTable
    sigmas: np.ndarray
    codes: np.ndarray

    @classmethod
    def from_weights(cls, sites: list[BridgeSite | OpenSite],
                     weights: list[float]) -> "SiteDrawTable":
        """Build the table; raises ``ValueError`` on a weight vector
        that ``Generator.choice`` would reject (see
        :class:`~repro.defects.distribution.ChoiceTable`)."""
        probs = np.array(weights, dtype=float)
        return cls(tuple(sites), ChoiceTable(probs / probs.sum()),
                   np.array([STRENGTH_SIGMA[s] for s in sites], dtype=float),
                   np.array([SITE_CODE[s] for s in sites], dtype=np.intp))


def classify_bridge_pair(pair: AdjacentPair) -> BridgeSite | None:
    """Map a facing net pair onto a bridge site class (None = ignore)."""
    nets = {pair.a.net, pair.b.net}
    names = sorted(nets)

    def has(prefix: str) -> bool:
        return any(n.startswith(prefix) for n in names)

    is_cell_node = [n.startswith("cell[") and (n.endswith(".t") or n.endswith(".c"))
                    for n in names]
    is_rail = [n in ("vdd", "gnd") for n in names]
    if any(is_cell_node) and any(is_rail):
        return BridgeSite.CELL_NODE_RAIL
    if all(is_cell_node):
        return BridgeSite.CELL_NODE_NODE
    if any(n.startswith("wl[") for n in names) and any(is_cell_node):
        return BridgeSite.WORDLINE_CELL
    if sum(n.startswith(("bl[", "blb[")) for n in names) == 2:
        return BridgeSite.BITLINE_BITLINE
    if all(n.startswith("dec.") for n in names):
        return BridgeSite.DECODER_LOGIC
    if all(n.startswith("sa.") for n in names):
        return BridgeSite.PERIPHERY_METAL
    if has("cell[") and any(".bl_contact" in n for n in names):
        return BridgeSite.EQUIVALENT_NODE
    if any(n.startswith("wl[") for n in names) and any(is_rail):
        return BridgeSite.PERIPHERY_METAL
    return None


class IfaExtractor:
    """Extract weighted defect-site populations from a layout.

    A calibrated extractor draws its defects from the calibrated mixes
    alone, so it never generates or scans the layout unless a caller
    asks for the extracted classes (:meth:`bridge_site_classes`,
    :meth:`open_site_classes`) or the layout itself.

    Args:
        geometry: Memory organisation (for cell-index assignment and
            replication scaling).
        layout: Pre-built layout; generated from ``geometry`` on first
            use when omitted.
        calibrated: Rescale class totals onto the calibrated mixes.
    """

    def __init__(self, geometry: MemoryGeometry,
                 layout: SramLayout | None = None,
                 calibrated: bool = True) -> None:
        self.geometry = geometry
        self._layout = layout
        self.calibrated = calibrated
        self._bridge_classes: list[ExtractedSiteClass] | None = None
        self._open_classes: list[ExtractedSiteClass] | None = None
        self._draw_tables: dict[DefectKind, SiteDrawTable] = {}

    @property
    def layout(self) -> SramLayout:
        """The layout window (generated from ``geometry`` on first use)."""
        if self._layout is None:
            self._layout = SramLayout(self.geometry)
        return self._layout

    # ------------------------------------------------------------------
    def bridge_site_classes(self) -> list[ExtractedSiteClass]:
        """Classified bridge site classes with normalised weights.

        Cached after the first call (the layout is immutable).
        """
        if self._bridge_classes is not None:
            return self._bridge_classes
        pairs = find_adjacent_pairs(self.layout.rects)
        totals: dict[BridgeSite, float] = {}
        counts: dict[BridgeSite, int] = {}
        for pair in pairs:
            site = classify_bridge_pair(pair)
            if site is None:
                continue
            w = short_weight(pair.spacing, pair.facing_length)
            totals[site] = totals.get(site, 0.0) + w
            counts[site] = counts.get(site, 0) + 1
        if self.calibrated:
            weights = {s: BRIDGE_SITE_MIX[s] for s in BRIDGE_SITE_MIX}
        else:
            grand = sum(totals.values()) or 1.0
            weights = {s: w / grand for s, w in totals.items()}
        self._bridge_classes = [
            ExtractedSiteClass(site, weights[site], counts.get(site, 0))
            for site in weights
        ]
        return self._bridge_classes

    def open_site_classes(self) -> list[ExtractedSiteClass]:
        """Classified open site classes with normalised weights (cached)."""
        if self._open_classes is not None:
            return self._open_classes
        kind_map = {
            "cell_pullup": OpenSite.CELL_PULLUP,
            "cell_access": OpenSite.CELL_ACCESS,
            "bitline": OpenSite.BITLINE_SEGMENT,
            "decoder_input": OpenSite.DECODER_INPUT,
            "periphery": OpenSite.PERIPHERY_PATH,
        }
        counts: dict[OpenSite, int] = {}
        for via in self.layout.vias:
            site = kind_map[via.kind]
            counts[site] = counts.get(site, 0) + 1
        if self.calibrated:
            weights = dict(OPEN_SITE_MIX)
        else:
            grand = sum(counts.values()) or 1.0
            weights = {s: c / grand for s, c in counts.items()}
        self._open_classes = [
            ExtractedSiteClass(site, weights.get(site, 0.0),
                               counts.get(site, 0))
            for site in weights
        ]
        return self._open_classes

    def draw_table(self, kind: DefectKind) -> SiteDrawTable:
        """The site draw table of ``kind`` (bridges or opens), cached.

        Calibrated: the sites and weights of ``BRIDGE_SITE_MIX`` /
        ``OPEN_SITE_MIX`` in mix order -- exactly the calibrated
        :meth:`bridge_site_classes` / :meth:`open_site_classes`, without
        the layout scan behind their ``pair_count``.  Uncalibrated: the
        extracted classes.

        Raises:
            ValueError: the weights cannot be drawn from (an
                uncalibrated layout with no site of this kind).
        """
        table = self._draw_tables.get(kind)
        if table is None:
            bridges = kind is DefectKind.BRIDGE
            if self.calibrated:
                mix = BRIDGE_SITE_MIX if bridges else OPEN_SITE_MIX
                sites, weights = list(mix), list(mix.values())
            else:
                classes = (self.bridge_site_classes() if bridges
                           else self.open_site_classes())
                sites = [c.site for c in classes]
                weights = [c.weight for c in classes]
            table = SiteDrawTable.from_weights(sites, weights)
            self._draw_tables[kind] = table
        return table

    # ------------------------------------------------------------------
    def sample_bridges(self, n: int, rng: np.random.Generator,
                       resistance_sampler=None) -> list[Defect]:
        """Draw a population of bridge defects.

        Site class follows the extracted mix; each defect gets a
        per-site strength from the class's lognormal spread, a victim
        cell, a polarity and (optionally) a resistance from
        ``resistance_sampler(rng)``; resistance defaults to 1 kOhm so R
        sweeps can override it.  The draw sequence is that of
        :func:`sample_defects_reference`.
        """
        return self._sample(n, rng, DefectKind.BRIDGE, resistance_sampler)

    def sample_opens(self, n: int, rng: np.random.Generator,
                     resistance_sampler=None) -> list[Defect]:
        """Draw a population of open defects (see :meth:`sample_bridges`)."""
        return self._sample(n, rng, DefectKind.OPEN, resistance_sampler)

    def sample_batch(self, n: int, rng: np.random.Generator,
                     kind: DefectKind,
                     resistance_distribution=None) -> DefectArrays:
        """Draw ``n`` defects of ``kind`` with one numpy call per attribute.

        The vectorised counterpart of :meth:`sample_bridges` /
        :meth:`sample_opens` used by the streaming experiment engine
        (:mod:`repro.experiment.streaming`): site picks, strengths,
        cells, polarities and resistances are each drawn as one array
        and returned as such (:class:`~repro.defects.models.DefectArrays`,
        whose constructor applies :class:`Defect`'s value checks
        array-wise), so no :class:`Defect` is built unless a consumer
        asks for one.  The attribute *marginals* match the scalar path
        but the RNG consumption order differs (array-per-attribute vs
        interleaved per defect), so given the same generator state the
        two paths yield different -- equally valid -- populations;
        deterministic substream seeding, not stream splicing, is the
        reproducibility contract here.

        Args:
            n: Population size; ``0`` returns empty arrays.
            rng: Source generator.
            kind: ``DefectKind.BRIDGE`` or ``DefectKind.OPEN``.
            resistance_distribution: Optional
                :class:`~repro.defects.distribution.ResistanceDistribution`;
                resistances default to 1 kOhm when omitted (matching the
                scalar samplers' default).
        """
        if n < 0:
            raise ValueError("n must be non-negative")
        if n == 0:
            return DefectArrays.from_defects([])
        table = self.draw_table(kind)
        picks = table.choice.draw(rng, n)
        strengths = np.exp(rng.normal(0.0, 1.0, size=n) * table.sigmas[picks])
        cells = rng.integers(0, self.geometry.bits, size=n)
        polarities = np.where(rng.random(n) < 0.5, -1, 1)
        if resistance_distribution is not None:
            resistances = np.asarray(
                resistance_distribution.sample(rng, n), dtype=float)
        else:
            resistances = np.full(n, 1e3)
        return DefectArrays(table.codes[picks], strengths, resistances,
                            cells.astype(np.int64, copy=False),
                            polarities.astype(np.int64, copy=False))

    def _sample(self, n: int, rng: np.random.Generator, kind: DefectKind,
                resistance_sampler) -> list[Defect]:
        if n <= 0:
            raise ValueError("n must be positive")
        table = self.draw_table(kind)
        return self._defects(table.sites, table.choice.draw(rng, n).tolist(),
                             rng, kind, resistance_sampler)

    def _defects(self, sites, picks, rng: np.random.Generator,
                 kind: DefectKind, resistance_sampler) -> list[Defect]:
        """One defect per pick, each drawing its strength, cell,
        polarity and resistance from ``rng`` in that order."""
        out: list[Defect] = []
        for i in picks:
            site = sites[int(i)]
            sigma = STRENGTH_SIGMA[site]
            strength = float(np.exp(rng.normal(0.0, sigma)))
            cell = int(rng.integers(0, self.geometry.bits))
            polarity = -1 if rng.random() < 0.5 else 1
            resistance = (float(resistance_sampler(rng))
                          if resistance_sampler is not None else 1e3)
            out.append(Defect(kind, site, resistance, strength=strength,
                              cell=cell, weight=1.0, polarity=polarity))
        return out


def sample_defects_reference(extractor: IfaExtractor, n: int,
                             rng: np.random.Generator, kind: DefectKind,
                             resistance_sampler=None) -> list[Defect]:
    """The per-call ``choice(p=...)`` site draw -- the oracle of
    :meth:`IfaExtractor.sample_bridges` / :meth:`~IfaExtractor.sample_opens`.

    The scanned site classes' weights are renormalised and passed to
    ``rng.choice`` on every call.  The samplers must return ``==``
    defect lists from the same generator state; no production path
    calls this.
    """
    classes = (extractor.bridge_site_classes() if kind is DefectKind.BRIDGE
               else extractor.open_site_classes())
    if n <= 0:
        raise ValueError("n must be positive")
    sites = [c.site for c in classes]
    probs = np.array([c.weight for c in classes], dtype=float)
    probs = probs / probs.sum()
    picks = rng.choice(len(sites), size=n, p=probs)
    return extractor._defects(sites, picks, rng, kind, resistance_sampler)
