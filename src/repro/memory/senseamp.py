"""Sense amplifier: differential sensing margin model.

The sense amplifier decides the read value from the differential voltage
the cell develops on the bit-line pair before the sense strobe.  Its two
parameters drive the stress-condition behaviour of reads:

* the input offset/margin ``v_offset`` -- a read fails when the developed
  differential stays below it (weak cells, resistive defects in the read
  path, short develop time);
* the strobe time -- set by the clock period and the timing chain, so
  the available develop window shrinks at speed.

The model is deliberately first-order (linear bit-line discharge by the
cell read current); what matters for the reproduction is the *scaling*
of the differential with Vdd, defect resistance and period.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuit.technology import Technology


@dataclass(frozen=True)
class SenseAmp:
    """Differential latch-type sense amplifier.

    Attributes:
        tech: Technology corner.
        v_offset: Worst-case input offset (V): minimum differential for a
            correct decision.
        bitline_capacitance: Bit-line capacitance (F) the cell must
            discharge.
        develop_fraction: Fraction of the clock period available for
            signal development before the strobe.
    """

    tech: Technology
    v_offset: float = 0.08
    bitline_capacitance: float = 150e-15
    develop_fraction: float = 0.35

    def __post_init__(self) -> None:
        if self.v_offset <= 0:
            raise ValueError("v_offset must be positive")
        if self.bitline_capacitance <= 0:
            raise ValueError("bitline_capacitance must be positive")
        if not 0 < self.develop_fraction <= 1:
            raise ValueError("develop_fraction must be in (0, 1]")

    def develop_time(self, period: float) -> float:
        """Signal-development window for a clock period."""
        if period <= 0:
            raise ValueError("period must be positive")
        return self.develop_fraction * period

    def differential(self, read_current: float, period: float) -> float:
        """Bit-line differential developed by a cell read current.

        Linear discharge: ``dV = I_read * t_develop / C_bl``, clamped to
        the full swing.
        """
        if read_current < 0:
            raise ValueError("read_current must be non-negative")
        dv = read_current * self.develop_time(period) / self.bitline_capacitance
        return min(dv, self.tech.vdd_max)

    def resolves(self, read_current: float, period: float) -> bool:
        """Does the sense amp read correctly given the cell current?"""
        return self.differential(read_current, period) >= self.v_offset

    def minimum_current(self, period: float) -> float:
        """Smallest cell read current that still reads correctly."""
        return self.v_offset * self.bitline_capacitance / self.develop_time(period)
