"""Stress conditions: the (voltage, frequency, temperature) test corners.

The paper's whole argument is organised around *stress conditions* --
combinations of supply voltage and test frequency under which the same
march patterns are applied:

* **VLV** -- very-low voltage (1.0 V on the 0.18 um chip, i.e. 2..2.5 VT)
  at reduced frequency (10 MHz / 100 ns in the paper's Figure 3),
  targeting resistive *bridges*;
* **Vmin / Vnom / Vmax** -- the specified supply corners at production
  frequency; Vmax targets resistive *opens*;
* **at-speed** -- the highest usable frequency (15 ns on the paper's
  tester) at Vmax, targeting timing-related (dynamic) faults.

:class:`StressCondition` is the shared value object; the module also
builds the paper's five-condition production suite for any technology.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuit.technology import Technology


@dataclass(frozen=True)
class StressCondition:
    """One test corner.

    Attributes:
        name: Identifier used in reports ("VLV", "Vmax", "at-speed", ...).
        vdd: Supply voltage (V).
        period: Clock period (s).
        temperature: Junction temperature (Celsius).
    """

    name: str
    vdd: float
    period: float
    temperature: float = 25.0

    def __post_init__(self) -> None:
        if self.vdd <= 0:
            raise ValueError("vdd must be positive")
        if self.period <= 0:
            raise ValueError("period must be positive")

    @property
    def frequency(self) -> float:
        """Clock frequency in Hz."""
        return 1.0 / self.period

    def __str__(self) -> str:
        return (
            f"{self.name}: {self.vdd:.2f} V @ {self.period * 1e9:.0f} ns"
            f" ({self.frequency / 1e6:.0f} MHz)"
        )


#: Clock periods used by the paper's experiment: 100 ns (10 MHz) for the
#: slow/VLV conditions and 15 ns for "at-speed" (the tester's limit).
SLOW_PERIOD = 100e-9
ATSPEED_PERIOD = 15e-9


def production_conditions(tech: Technology) -> dict[str, StressCondition]:
    """The paper's five-condition stress suite for a technology.

    VLV runs at the slow period (the device must still meet timing at
    low voltage -- Section 4.1); Vmin/Vnom/Vmax run at the slow period as
    the *standard* test; "at-speed" runs the same patterns at the fast
    period and nominal supply.  (The paper *characterised* the at-speed
    period on fault-free samples at Vmax but reports the at-speed fail
    class as disjoint from the Vmax-only class in Figure 11, which
    implies the production at-speed pass/fail ran at nominal supply;
    we follow that reading.)
    """
    return {
        "VLV": StressCondition("VLV", tech.vdd_vlv, SLOW_PERIOD),
        "Vmin": StressCondition("Vmin", tech.vdd_min, SLOW_PERIOD),
        "Vnom": StressCondition("Vnom", tech.vdd_nominal, SLOW_PERIOD),
        "Vmax": StressCondition("Vmax", tech.vdd_max, SLOW_PERIOD),
        "at-speed": StressCondition("at-speed", tech.vdd_nominal,
                                    ATSPEED_PERIOD),
    }


def standard_conditions(tech: Technology) -> dict[str, StressCondition]:
    """The non-stress baseline: Vmin/Vnom/Vmax at the standard period.

    A device passing all three is "good" by the conventional flow; the
    paper's interesting devices pass these and fail only under stress.
    """
    all_conditions = production_conditions(tech)
    return {k: all_conditions[k] for k in ("Vmin", "Vnom", "Vmax")}
