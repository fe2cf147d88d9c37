"""Iddq testing: the stress-condition alternative the paper weighs.

The paper's VLV discussion builds on [Kruseman 02], "Comparison of Iddq
Testing and Very-Low Voltage Testing": a bridge that escapes functional
testing still draws quiescent supply current, so measuring Iddq after
each pattern catches it -- *if* the defect current stands out above the
chip's background leakage.  The comparison matters because Iddq is
cheap (no extra voltage corner) but dies with technology scaling: the
background leakage of millions of off transistors swamps the defect
current in deep sub-micron processes, which is precisely why the paper's
generation moved to VLV instead.

:class:`IddqTester` models both sides:

* defect current: a bridge of resistance R across an (on average)
  half-supply potential difference draws ``~ Vdd / (2 R)``, weighted by
  the fraction of march states that bias the bridge (opens draw nothing
  -- the classic Iddq blind spot);
* background: per-cell subthreshold leakage scaling exponentially with
  temperature and with the technology's threshold voltage.

The decision rule is the industry-standard threshold test with a
current-resolution floor.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuit.technology import Technology
from repro.defects.models import Defect, DefectKind, BridgeSite
from repro.memory.geometry import MemoryGeometry


@dataclass(frozen=True)
class IddqSettings:
    """Measurement parameters of the Iddq screen.

    Attributes:
        threshold_factor: Fail when measured current exceeds
            ``threshold_factor x`` the expected background (3x is a
            common production choice).
        resolution: Smallest defect current the PMU resolves (A).
        leakage_per_cell_25c: Background leakage per cell at 25 C and
            nominal supply (A).  ~5 pA/cell is representative of a
            0.18 um SRAM (a 256 Kbit instance leaks ~1 uA); leakier
            scaled corners override it.
        leakage_doubling_temp: Temperature increase that doubles the
            leakage (C); ~10 C for subthreshold conduction.
        bias_fraction: Fraction of Iddq strobe states in which a given
            bridge is biased (both ends at different potentials);
            0.5 reflects the alternating march backgrounds.
    """

    threshold_factor: float = 3.0
    resolution: float = 1e-6
    leakage_per_cell_25c: float = 5e-12
    leakage_doubling_temp: float = 10.0
    bias_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.threshold_factor <= 1.0:
            raise ValueError("threshold_factor must exceed 1.0")
        if self.resolution <= 0 or self.leakage_per_cell_25c <= 0:
            raise ValueError("currents must be positive")
        if not 0.0 < self.bias_fraction <= 1.0:
            raise ValueError("bias_fraction must be in (0, 1]")


class IddqTester:
    """Quiescent-current screen over a memory.

    Args:
        tech: Technology corner.
        geometry: Memory organisation (sets the background leakage).
        settings: Measurement parameters.
    """

    def __init__(self, tech: Technology, geometry: MemoryGeometry,
                 settings: IddqSettings | None = None) -> None:
        self.tech = tech
        self.geometry = geometry
        self.settings = settings if settings is not None else IddqSettings()

    # ------------------------------------------------------------------
    def background_current(self, temperature: float = 25.0) -> float:
        """Chip background leakage (A) at a junction temperature."""
        s = self.settings
        scale = 2.0 ** ((temperature - 25.0) / s.leakage_doubling_temp)
        return self.geometry.bits * s.leakage_per_cell_25c * scale

    def defect_current(self, defect: Defect, vdd: float | None = None) -> float:
        """Quiescent current added by a defect (A).

        Bridges conduct; opens do not (the Iddq blind spot).  Bridges
        between electrically equivalent nodes see no potential
        difference and are equally invisible.
        """
        if defect.kind is DefectKind.OPEN:
            return 0.0
        if defect.site is BridgeSite.EQUIVALENT_NODE:
            return 0.0
        vdd = self.tech.vdd_nominal if vdd is None else vdd
        return self.settings.bias_fraction * vdd / (2.0 * defect.resistance)

    def detects(self, defect: Defect, temperature: float = 25.0,
                vdd: float | None = None) -> bool:
        """Does the Iddq screen flag the defect?

        Requires the defect current to (a) clear the PMU resolution and
        (b) push the total past ``threshold_factor x`` background.
        """
        i_defect = self.defect_current(defect, vdd)
        if i_defect < self.settings.resolution:
            return False
        background = self.background_current(temperature)
        total = background + i_defect
        return total > self.settings.threshold_factor * background

    def detection_threshold(self, temperature: float = 25.0) -> float:
        """Largest detectable bridge resistance (ohms) at nominal supply.

        Shrinks as background leakage grows -- the scaling argument for
        why Iddq loses to VLV in deep sub-micron (the defect current
        needed to stand out grows with the chip's own leakage).
        """
        background = self.background_current(temperature)
        i_needed = max(
            self.settings.resolution,
            (self.settings.threshold_factor - 1.0) * background,
        )
        return (self.settings.bias_fraction * self.tech.vdd_nominal
                / (2.0 * i_needed))

    # ------------------------------------------------------------------
    def coverage(self, defects: list[Defect],
                 temperature: float = 25.0) -> float:
        """Detected fraction of a defect population."""
        if not defects:
            return 1.0
        hits = sum(1 for d in defects if self.detects(d, temperature))
        return hits / len(defects)
