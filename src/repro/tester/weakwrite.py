"""Weak-write test mode (WWTM): the DFT alternative to stress corners.

An industrially common screen for *stability* defects (weakened
pull-ups, degraded SNM) without moving the supply: a dedicated test mode
writes each cell with deliberately weakened drivers.  A healthy cell
resists the weak write (its state survives); a weakened cell flips.  The
read-back then separates the two.  See e.g. Meixner & Banik, "Weak Write
Test Mode: An SRAM Cell Stability Design for Test Technique" (ITC 1996)
-- contemporary with the paper's VLV references.

The model: the weak write overpowers the cell iff the cell's restoring
strength has degraded below a margin factor.  For this library's defect
classes that means

* pull-up opens above a threshold resistance (weakened restore),
* node-to-node bridges above a threshold (degraded SNM),
* rail bridges low enough to pre-bias the cell.

WWTM is attractive because it runs at nominal conditions (no slow VLV
pass); the benchmark compares its reach against the VLV corner -- it
catches the *cell-stability* subset but is blind to the decoder/timing
classes that need Vmax/at-speed, so it complements rather than replaces
stress testing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuit.technology import Technology
from repro.defects.models import BridgeSite, Defect, DefectKind, OpenSite


@dataclass(frozen=True)
class WeakWriteSettings:
    """Tuning of the weak-write driver.

    Attributes:
        drive_margin: Fraction of the nominal cell restoring strength
            the weak driver is trimmed to (0.5 = half-strength).  Lower
            margins flag weaker cells but risk flipping healthy ones.
        pullup_r_threshold: Pull-up open resistance above which the cell
            loses to the weak write.
        snm_bridge_r_threshold: Node-to-node bridge resistance above
            which the cell's SNM no longer resists the weak write
            (bridges *below* it destroy the cell outright and are caught
            by the standard test).
        rail_bridge_r_threshold: Rail-bridge resistance below which the
            pre-biased cell flips under the weak write.
    """

    drive_margin: float = 0.5
    pullup_r_threshold: float = 2.0e6
    snm_bridge_r_threshold: float = 40e3
    rail_bridge_r_threshold: float = 200e3

    def __post_init__(self) -> None:
        if not 0.0 < self.drive_margin < 1.0:
            raise ValueError("drive_margin must be in (0, 1)")
        for name in ("pullup_r_threshold", "snm_bridge_r_threshold",
                     "rail_bridge_r_threshold"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


class WeakWriteTester:
    """Cell-stability screen at nominal conditions.

    The weak driver runs at the default :class:`WeakWriteSettings` trim.

    Args:
        tech: Technology corner.
    """

    def __init__(self, tech: Technology) -> None:
        self.tech = tech
        self.settings = WeakWriteSettings()

    def detects(self, defect: Defect) -> bool:
        """Does the weak-write screen flag this defect?

        Only cell-stability mechanisms respond; decoder hazards and pure
        timing defects are untouched by definition (the mode exercises
        the cell, not the periphery).
        """
        s = self.settings
        if defect.kind is DefectKind.OPEN:
            if defect.site is OpenSite.CELL_PULLUP:
                return (defect.resistance
                        >= s.pullup_r_threshold * defect.strength)
            return False
        if defect.site is BridgeSite.CELL_NODE_NODE:
            return (defect.resistance
                    >= s.snm_bridge_r_threshold * defect.strength)
        if defect.site is BridgeSite.CELL_NODE_RAIL:
            return (defect.resistance
                    <= s.rail_bridge_r_threshold * defect.strength)
        return False

    def coverage(self, defects: list[Defect]) -> float:
        """Detected fraction of a defect population."""
        if not defects:
            return 1.0
        return sum(1 for d in defects if self.detects(d)) / len(defects)
