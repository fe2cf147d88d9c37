"""Compact device models for the Spice-like simulator.

The paper's IFA flow injects extracted defects into a flat transistor
netlist and simulates it with an analogue simulator.  We reproduce that
flow with compact first-order models:

* :class:`Mosfet` -- the alpha-power-law model [Sakurai & Newton 1990],
  which captures the two voltage effects the paper's conclusions rest on:
  drive current collapsing as Vdd approaches VT (the VLV mechanism for
  resistive bridges) and gate delay shrinking with overdrive (the
  at-speed/Vmax mechanisms for resistive opens).
* :class:`Resistor` -- linear resistor; also used for injected bridge and
  open defects.
* :class:`Capacitor` -- linear capacitor for node loading.
* :class:`VoltageSource` / :class:`CurrentSource` -- stimulus elements.

Every device evaluates a current and a conductance (di/dv) so the Newton
solver in :mod:`repro.circuit.solver` can stamp it into the system matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from repro.circuit.technology import Technology


class MosType(Enum):
    """Channel type of a MOSFET."""

    NMOS = "nmos"
    PMOS = "pmos"


# Smoothing width (in volts) used to blend the cutoff/triode/saturation
# regions so the device current is continuously differentiable; Newton
# iteration needs smooth derivatives to converge on bistable circuits like
# the 6T cell.  The width trades model sharpness near VT for solver
# robustness; 50 mV keeps I-V errors below a few percent of I_dsat while
# eliminating the derivative kinks that cause Newton limit cycles.
_SMOOTH = 0.05


def _softplus(x: float) -> float:
    """Numerically-stable smooth max(x, 0)."""
    if x > 30.0 * _SMOOTH:
        return x
    if x < -30.0 * _SMOOTH:
        return 0.0
    return _SMOOTH * math.log1p(math.exp(x / _SMOOTH))


def _softplus_deriv(x: float) -> float:
    """Derivative of :func:`_softplus` (a smooth step function)."""
    if x > 30.0 * _SMOOTH:
        return 1.0
    if x < -30.0 * _SMOOTH:
        return 0.0
    return 1.0 / (1.0 + math.exp(-x / _SMOOTH))


@dataclass
class Mosfet:
    """Alpha-power-law MOSFET.

    The drain current in saturation is ``I = k * w * (Vgs - Vth)^alpha``
    and in triode it is scaled by ``Vds / Vdsat`` (linearised triode
    region, adequate for the read/write contention and delay questions the
    library asks).  A small off-leakage keeps the Jacobian non-singular.

    Attributes:
        name: Instance name.
        mtype: NMOS or PMOS.
        drain, gate, source: Node names.
        width: Width multiplier relative to a minimum-size device.
        tech: Technology supplying ``k``, ``Vth`` and ``alpha``.
    """

    name: str
    mtype: MosType
    drain: str
    gate: str
    source: str
    width: float = 1.0
    tech: Technology = field(default_factory=Technology)

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError(f"MOSFET {self.name}: width must be positive")

    @property
    def vth(self) -> float:
        return self.tech.vth_n if self.mtype is MosType.NMOS else self.tech.vth_p

    @property
    def k(self) -> float:
        base = self.tech.k_n if self.mtype is MosType.NMOS else self.tech.k_p
        return base * self.width

    def ids_and_conductances(self, vgs: float,
                             vds: float) -> tuple[float, float, float]:
        """Current plus small-signal gm (dI/dVgs) and gds (dI/dVds).

        For PMOS the terminal convention is the same (current positive
        into the drain node when conducting would be negative); internally
        we mirror voltages so a single body of math serves both types.
        """
        sign = 1.0
        if self.mtype is MosType.PMOS:
            vgs, vds, sign = -vgs, -vds, -1.0

        vov_raw = vgs - self.vth
        vov = _softplus(vov_raw)
        dvov = _softplus_deriv(vov_raw)
        # Minimum off conductance keeps the Newton matrix well conditioned
        # and stands in for subthreshold leakage.
        gleak = 1e-9
        if vov <= 1e-12:
            return sign * gleak * vds, 0.0, gleak

        alpha = self.tech.alpha
        isat = self.k * vov**alpha
        disat_dvgs = self.k * alpha * vov ** (alpha - 1.0) * dvov
        # Saturation voltage from the alpha-power model: Vdsat ~ vov
        # (Sakurai uses K*vov^(alpha/2); the linear form keeps derivatives
        # simple and preserves the trends we need).
        vdsat = max(vov, 1e-6)

        if vds >= vdsat:
            # Saturation, with a mild channel-length-modulation slope.
            lam = 0.05
            i = isat * (1.0 + lam * (vds - vdsat))
            gds = isat * lam + gleak
            gm = disat_dvgs * (1.0 + lam * (vds - vdsat))
        elif vds >= 0.0:
            # Linearised triode region: I = Isat * Vds / Vdsat, i.e.
            # I = k * vov^(alpha-1) * Vds, continuous with saturation at
            # Vds = Vdsat.
            i = self.k * vov ** (alpha - 1.0) * vds
            gm = self.k * (alpha - 1.0) * vov ** (alpha - 2.0) * vds * dvov
            gds = self.k * vov ** (alpha - 1.0) + gleak
        else:
            # Reverse-biased: treat as leakage only (the library never
            # relies on reverse conduction).
            i = gleak * vds
            gm = 0.0
            gds = gleak

        return sign * i, gm, gds


@dataclass
class Resistor:
    """Linear two-terminal resistor.

    Injected bridge defects are resistors between two signal nodes;
    injected open defects are resistors spliced into a net.
    """

    name: str
    node_a: str
    node_b: str
    resistance: float

    def __post_init__(self) -> None:
        if self.resistance <= 0:
            raise ValueError(f"resistor {self.name}: resistance must be positive")

    @property
    def conductance(self) -> float:
        return 1.0 / self.resistance


@dataclass
class Capacitor:
    """Linear two-terminal capacitor (node loading for transient sims)."""

    name: str
    node_a: str
    node_b: str
    capacitance: float

    def __post_init__(self) -> None:
        if self.capacitance <= 0:
            raise ValueError(f"capacitor {self.name}: capacitance must be positive")


@dataclass
class VoltageSource:
    """Ideal voltage source, optionally time-varying.

    ``waveform`` maps time (s) to volts; when omitted the source is DC at
    ``value``.
    """

    name: str
    node_pos: str
    node_neg: str
    value: float
    waveform: object | None = None

    def voltage_at(self, t: float) -> float:
        if self.waveform is None:
            return self.value
        return float(self.waveform(t))


@dataclass
class CurrentSource:
    """Ideal current source flowing from ``node_pos`` to ``node_neg``."""

    name: str
    node_pos: str
    node_neg: str
    value: float


Device = Mosfet | Resistor | Capacitor | VoltageSource | CurrentSource
