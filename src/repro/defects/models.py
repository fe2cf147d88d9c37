"""Resistive defect models: bridges and opens with site taxonomy.

The paper's subject is *soft defects*: resistive shorts (bridges) and
resistive opens whose visibility depends on stress conditions.  A defect
instance couples

* a **site class** -- where in the SRAM the defect sits, which fixes the
  electrical mechanism (a storage-node-to-rail bridge behaves as a
  voltage divider; a decoder-input open creates a select/deselect timing
  hazard; ...);
* a **resistance** -- sampled from the fab distribution
  (:mod:`repro.defects.distribution`);
* a **strength factor** -- per-site lognormal spread capturing layout
  context (driver sizing, wire lengths, neighbour activity) that the IFA
  extraction assigns from critical-area analysis;
* a **location** -- the flat cell index (or row/address) used when the
  defect is rendered into a functional fault.

The site-class fractions used by the synthetic IFA extractor are chosen
from the structural composition of an SRAM layout (rail adjacency
dominates the bridge critical area) and calibrated against the paper's
Table 1; see DESIGN.md section 6 and
:data:`repro.ifa.extraction.BRIDGE_SITE_MIX`.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np


class DefectKind(Enum):
    """Top-level defect type."""

    BRIDGE = "bridge"
    OPEN = "open"


class BridgeSite(Enum):
    """Where a resistive bridge sits, determining its detection physics.

    Members:
        CELL_NODE_RAIL: Storage node shorted to VDD or GND rail.  The
            dominant class by critical area (rails surround every cell).
            Voltage-divider mechanism against the restoring transistor:
            critical resistance rises steeply as Vdd drops -- the main
            VLV target (paper Section 4.1).
        CELL_NODE_NODE: Storage node to an adjacent cell's node or to the
            complement node.  Detection rides on read-disturb noise
            margin, which collapses at VLV; at nominal and above only
            near-hard shorts are visible.
        WORDLINE_CELL: Deselected (low) word line to a storage node.  The
            leak fights only the weak pull-up; at VLV the pull-up barely
            restores, so the class is detectable over a huge resistance
            range -- but only at VLV.
        BITLINE_BITLINE: Between a precharged bit-line pair.  Fights the
            differential development; stronger precharge and faster
            development mask it at high supply, so detection requires
            low-to-nominal voltage (and it also slows sensing: the class
            carries an at-speed detection band).
        DECODER_LOGIC: Inside static decode gates; contention between
            full drivers, weakly voltage dependent, detected only below a
            mid-range resistance.
        PERIPHERY_METAL: Between strongly driven periphery wires; needs a
            near-hard short at any voltage.
        EQUIVALENT_NODE: Between electrically equivalent nodes (same
            net's parallel branches); never detectable by voltage/timing
            stress -- the irreducible escape floor.
    """

    CELL_NODE_RAIL = "cell_node_rail"
    CELL_NODE_NODE = "cell_node_node"
    WORDLINE_CELL = "wordline_cell"
    BITLINE_BITLINE = "bitline_bitline"
    DECODER_LOGIC = "decoder_logic"
    PERIPHERY_METAL = "periphery_metal"
    EQUIVALENT_NODE = "equivalent_node"


class OpenSite(Enum):
    """Where a resistive open sits.

    Members:
        BITLINE_SEGMENT: Series resistance in a bit line or its via
            chain.  Pure RC delay, essentially voltage independent
            (Chip-3 of the paper: vertical shmoo boundary); at-speed
            target.
        CELL_ACCESS: In series with a cell's access transistor; the
            read develops slowly -- delay-type, with mild voltage
            dependence.
        CELL_PULLUP: Broken/resistive via to the cell pull-up PMOS.  At
            VLV the weakened restore loses against leakage (retention
            class); at Vmax the elevated gate/junction leakage through
            the defect also becomes visible -- the site class that
            produces the paper's VLV-and-Vmax overlap devices.
        DECODER_INPUT: Open at an address-decoder input (the Figure 5/6
            defect).  Creates a select/deselect hazard whose disturb
            current grows superlinearly with Vdd while margins grow
            linearly: detected only *above* a critical supply -- the
            Vmax-only class (Chip-2), frequency independent.
        PERIPHERY_PATH: In a periphery logic/clock path; delay that
            scales with gate delay, so the pass-fail boundary moves with
            voltage (Chip-4's voltage-dependent timing failure).
    """

    BITLINE_SEGMENT = "bitline_segment"
    CELL_ACCESS = "cell_access"
    CELL_PULLUP = "cell_pullup"
    DECODER_INPUT = "decoder_input"
    PERIPHERY_PATH = "periphery_path"


@dataclass(frozen=True)
class Defect:
    """One resistive defect instance.

    Attributes:
        kind: Bridge or open.
        site: A :class:`BridgeSite` or :class:`OpenSite` member.
        resistance: Defect resistance in ohms.
        strength: Per-site lognormal strength factor (multiplies the
            class's critical resistance / delay scale); 1.0 = the class
            median site.
        cell: Flat cell index of the affected cell (or, for decoder /
            periphery sites, of a representative victim cell).
        weight: Relative likelihood from critical-area extraction
            (arbitrary units; normalised by consumers).
        polarity: For rail bridges: +1 = to VDD, -1 = to GND; unused
            otherwise.
    """

    kind: DefectKind
    site: BridgeSite | OpenSite
    resistance: float
    strength: float = 1.0
    cell: int = 0
    weight: float = 1.0
    polarity: int = -1

    def __post_init__(self) -> None:
        if self.resistance <= 0:
            raise ValueError("resistance must be positive")
        if self.strength <= 0:
            raise ValueError("strength must be positive")
        if self.weight < 0:
            raise ValueError("weight must be non-negative")
        if self.kind is DefectKind.BRIDGE and not isinstance(self.site, BridgeSite):
            raise TypeError("bridge defect needs a BridgeSite")
        if self.kind is DefectKind.OPEN and not isinstance(self.site, OpenSite):
            raise TypeError("open defect needs an OpenSite")
        if self.polarity not in (-1, 1):
            raise ValueError("polarity must be -1 or +1")

    def with_resistance(self, resistance: float) -> "Defect":
        """Copy with a different resistance (for R sweeps).

        Raises:
            ValueError: non-positive (or NaN) resistance -- a sweep
                grid built from a bad axis fails here, at the source,
                instead of deep inside the behaviour model.
        """
        if not resistance > 0:
            raise ValueError(
                f"resistance must be positive, got {resistance!r}")
        # Direct construction, not dataclasses.replace(): this runs
        # once per (site, R) in every sweep, and replace()'s field
        # introspection costs several times the constructor it wraps.
        return Defect(self.kind, self.site, float(resistance),
                      self.strength, self.cell, self.weight,
                      self.polarity)

    def __str__(self) -> str:
        return (
            f"{self.kind.value}/{self.site.value} R={self.resistance:,.0f}ohm "
            f"k={self.strength:.2f} cell={self.cell}"
        )


#: Every site class in one stable order; a site's *code* is its index
#: here (bridges first, then opens).  The structure-of-arrays defect
#: form (:class:`DefectArrays`) and the behaviour model's elementwise
#: kernel speak in codes.
SITE_CODES: tuple[BridgeSite | OpenSite, ...] = (*BridgeSite, *OpenSite)
#: Site class -> its code in :data:`SITE_CODES`.
SITE_CODE: dict[BridgeSite | OpenSite, int] = {
    site: code for code, site in enumerate(SITE_CODES)}
#: The :class:`DefectArrays` fields, in order.
_ARRAY_FIELDS = ("codes", "strengths", "resistances", "cells", "polarities")


@dataclass(frozen=True)
class DefectArrays:
    """A defect population in structure-of-arrays form.

    Element ``i`` is the defect ``Defect(kind, SITE_CODES[codes[i]],
    resistances[i], strength=strengths[i], cell=cells[i], weight=1.0,
    polarity=polarities[i])`` (the kind follows from the site class);
    :meth:`defect` materialises it.  Construction applies
    :class:`Defect`'s value checks to every element at once, so a
    population that could not be materialised is rejected up front.
    :meth:`interleave` and :meth:`concatenate` merge populations that
    were built, and so checked, that way: they only rearrange elements
    and do not check them again.

    Attributes:
        codes: Site codes (indices into :data:`SITE_CODES`).
        strengths: Per-site strength factors.
        resistances: Defect resistances (ohms).
        cells: Victim flat cell indices.
        polarities: ``-1`` or ``+1`` per defect.
    """

    codes: np.ndarray
    strengths: np.ndarray
    resistances: np.ndarray
    cells: np.ndarray
    polarities: np.ndarray

    def __post_init__(self) -> None:
        n = self.codes.shape[0]
        if any(a.shape != (n,) for a in (self.codes, self.strengths,
                                          self.resistances, self.cells,
                                          self.polarities)):
            raise ValueError("defect arrays must be aligned 1-D arrays")
        # The same comparisons as Defect.__post_init__ (a NaN passes
        # both, exactly as it passes the scalar checks).
        if np.any(self.resistances <= 0):
            raise ValueError("resistance must be positive")
        if np.any(self.strengths <= 0):
            raise ValueError("strength must be positive")
        if np.any((self.polarities != -1) & (self.polarities != 1)):
            raise ValueError("polarity must be -1 or +1")
        if np.any((self.codes < 0) | (self.codes >= len(SITE_CODES))):
            raise ValueError("site code out of range")

    def __len__(self) -> int:
        return int(self.codes.shape[0])

    def _arrays(self) -> tuple[np.ndarray, ...]:
        return tuple(getattr(self, name) for name in _ARRAY_FIELDS)

    @classmethod
    def _of_checked(cls, arrays: Iterable[np.ndarray]) -> "DefectArrays":
        """Wrap aligned arrays whose elements all passed the checks of
        ``__post_init__`` (a rearrangement of checked populations)."""
        out = object.__new__(cls)
        for name, array in zip(_ARRAY_FIELDS, arrays, strict=True):
            object.__setattr__(out, name, array)
        return out

    @classmethod
    def interleave(cls, mask: np.ndarray, when_true: "DefectArrays",
                   when_false: "DefectArrays") -> "DefectArrays":
        """Merge two populations into ``mask``'s True / False slots:
        the ``k``-th element of ``when_true`` lands on the ``k``-th
        True, and likewise for ``when_false``."""
        merged = []
        for a, b in zip(when_true._arrays(), when_false._arrays()):
            out = np.empty(mask.shape, dtype=np.result_type(a, b))
            out[mask] = a
            out[~mask] = b
            merged.append(out)
        return cls._of_checked(merged)

    @classmethod
    def concatenate(cls, parts: Sequence["DefectArrays"]) -> "DefectArrays":
        """One population holding ``parts``' elements in order."""
        return cls._of_checked(
            np.concatenate(arrays)
            for arrays in zip(*(part._arrays() for part in parts)))

    @classmethod
    def from_defects(cls, defects: Sequence[Defect]) -> "DefectArrays":
        """Flatten materialised defects (``weight`` is not carried)."""
        n = len(defects)
        return cls(
            codes=np.fromiter((SITE_CODE[d.site] for d in defects),
                              dtype=np.intp, count=n),
            strengths=np.fromiter((d.strength for d in defects),
                                  dtype=float, count=n),
            resistances=np.fromiter((d.resistance for d in defects),
                                    dtype=float, count=n),
            cells=np.fromiter((d.cell for d in defects), dtype=np.int64,
                              count=n),
            polarities=np.fromiter((d.polarity for d in defects),
                                   dtype=np.int64, count=n))

    def defect(self, i: int) -> Defect:
        """Materialise element ``i`` as a :class:`Defect`."""
        site = SITE_CODES[int(self.codes[i])]
        kind = (DefectKind.BRIDGE if isinstance(site, BridgeSite)
                else DefectKind.OPEN)
        return Defect(kind, site, float(self.resistances[i]),
                      strength=float(self.strengths[i]),
                      cell=int(self.cells[i]), weight=1.0,
                      polarity=int(self.polarities[i]))

    def defects(self) -> list[Defect]:
        """Materialise every element, in order."""
        return [self.defect(i) for i in range(len(self))]


def bridge(site: BridgeSite, resistance: float, **kwargs) -> Defect:
    """Convenience constructor for a bridge defect."""
    return Defect(DefectKind.BRIDGE, site, resistance, **kwargs)


def open_defect(site: OpenSite, resistance: float, **kwargs) -> Defect:
    """Convenience constructor for an open defect."""
    return Defect(DefectKind.OPEN, site, resistance, **kwargs)
