"""Technology description for the simulated CMOS process.

The paper's silicon work targets a Philips CMOS 0.18 um process (the
Veqtor4 test chip).  We obviously do not have the foundry SPICE decks, so
this module defines a compact, first-order technology model that carries
the parameters the rest of the library needs:

* threshold voltages and alpha-power-law exponents for the MOSFET model
  (:mod:`repro.circuit.devices`),
* per-layer sheet resistances and capacitances used by the synthetic
  layout/IFA flow (:mod:`repro.ifa`),
* the supply-voltage corners used as stress conditions in the paper
  (VLV = 1.0 V, Vmin = 1.65 V, Vnom = 1.8 V, Vmax = 1.95 V).

All values are representative textbook numbers for a 0.18 um generation
and are documented inline; they are *calibration inputs*, not foundry
data.  DESIGN.md records this substitution.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class LayerInfo:
    """Electrical properties of one interconnect layer.

    Attributes:
        name: Layer identifier used by the synthetic layout.
        sheet_resistance: Sheet resistance in ohm/square.
        area_capacitance: Capacitance to substrate in F/um^2.
        fringe_capacitance: Fringe/coupling capacitance in F/um (per edge).
        min_width: Minimum drawn width in um.
        min_spacing: Minimum spacing to a neighbour on the same layer in um.
    """

    name: str
    sheet_resistance: float
    area_capacitance: float
    fringe_capacitance: float
    min_width: float
    min_spacing: float


@dataclass(frozen=True)
class Technology:
    """Compact description of a CMOS process corner.

    The default constructor values model a generic 0.18 um process at the
    typical corner and room temperature.  The alpha-power-law parameters
    (``vth_n``, ``vth_p``, ``alpha``) drive every voltage-dependent
    behaviour in the library: transistor saturation current, gate delay,
    bridge critical resistance and shmoo boundaries.

    Attributes:
        name: Human-readable identifier.
        feature_size: Drawn channel length in um.
        vdd_nominal: Nominal supply voltage in volts.
        vdd_min: Minimum specified supply (Vnom - 10%).
        vdd_max: Maximum specified supply (Vnom + 10%).
        vdd_vlv: Very-low-voltage stress level used by the paper (1.0 V,
            i.e. 2..2.5 x VT as recommended by [Chang 96, Kruseman 02]).
        vth_n: NMOS threshold voltage in volts.
        vth_p: PMOS threshold voltage magnitude in volts.
        alpha: Alpha-power-law velocity-saturation exponent
            (1 = fully velocity saturated, 2 = long channel; 0.18 um is
            typically around 1.3).
        k_n: NMOS transconductance coefficient in A/V^alpha for a
            minimum-size device (I_dsat = k * (Vgs - Vth)^alpha).
        k_p: PMOS transconductance coefficient in A/V^alpha for a
            minimum-size device.
        gate_capacitance: Gate capacitance of a minimum-size device in F.
        junction_capacitance: Drain junction capacitance of a minimum-size
            device in F.
        temperature: Simulation temperature in Celsius.
        layers: Interconnect layer table keyed by layer name.
    """

    name: str = "cmos018"
    feature_size: float = 0.18
    vdd_nominal: float = 1.8
    vdd_min: float = 1.65
    vdd_max: float = 1.95
    vdd_vlv: float = 1.0
    vth_n: float = 0.45
    vth_p: float = 0.45
    alpha: float = 1.3
    k_n: float = 3.2e-4
    k_p: float = 1.4e-4
    gate_capacitance: float = 1.0e-15
    junction_capacitance: float = 0.8e-15
    temperature: float = 25.0
    layers: dict[str, LayerInfo] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.layers:
            object.__setattr__(self, "layers", _default_layers())
        self.validate()

    def validate(self) -> None:
        """Raise ``ValueError`` when the corner is physically inconsistent."""
        if not 0.0 < self.vdd_vlv < self.vdd_min < self.vdd_nominal < self.vdd_max:
            raise ValueError(
                "supply corners must satisfy 0 < VLV < Vmin < Vnom < Vmax, got "
                f"{self.vdd_vlv}, {self.vdd_min}, {self.vdd_nominal}, {self.vdd_max}"
            )
        if self.vth_n <= 0 or self.vth_p <= 0:
            raise ValueError("threshold voltages must be positive")
        if self.vdd_vlv <= self.vth_n:
            raise ValueError(
                f"VLV ({self.vdd_vlv} V) must stay above VT ({self.vth_n} V); "
                "the paper recommends 2..2.5 x VT"
            )
        if not 1.0 <= self.alpha <= 2.0:
            raise ValueError(f"alpha-power exponent out of range [1, 2]: {self.alpha}")
        if self.k_n <= 0 or self.k_p <= 0:
            raise ValueError("transconductance coefficients must be positive")


def _default_layers() -> dict[str, LayerInfo]:
    """Representative 0.18 um interconnect stack (aluminium).

    Sheet resistances and capacitances are typical published values for an
    aluminium 0.18 um back-end; the IFA flow only uses their relative
    magnitudes (critical-area weighting and RC estimates).
    """
    return {
        "poly": LayerInfo("poly", 8.0, 1.0e-16, 0.6e-16, 0.18, 0.24),
        "diff": LayerInfo("diff", 6.0, 1.2e-16, 0.5e-16, 0.22, 0.28),
        "metal1": LayerInfo("metal1", 0.08, 0.4e-16, 0.8e-16, 0.24, 0.24),
        "metal2": LayerInfo("metal2", 0.08, 0.3e-16, 0.8e-16, 0.28, 0.28),
        "metal3": LayerInfo("metal3", 0.05, 0.2e-16, 0.7e-16, 0.32, 0.32),
        "via": LayerInfo("via", 4.0, 0.0, 0.0, 0.26, 0.26),
        "contact": LayerInfo("contact", 8.0, 0.0, 0.0, 0.22, 0.25),
    }


#: The default technology instance used throughout the library: a generic
#: CMOS 0.18 um corner matching the paper's test chip process generation.
CMOS018 = Technology()

#: A representative 0.13 um copper-interconnect corner.  The paper notes
#: that opens become dominant at 0.13 um and below; this corner is used by
#: ablation studies that shift the bridge/open mix.
CMOS013 = Technology(
    name="cmos013",
    feature_size=0.13,
    vdd_nominal=1.2,
    vdd_min=1.08,
    vdd_max=1.32,
    vdd_vlv=0.8,
    vth_n=0.35,
    vth_p=0.35,
    alpha=1.25,
    k_n=4.1e-4,
    k_p=1.8e-4,
    gate_capacitance=0.7e-15,
    junction_capacitance=0.55e-15,
)
