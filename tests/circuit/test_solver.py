"""Tests for repro.circuit.solver (DC + transient MNA engine)."""

import math

import numpy as np
import pytest

from repro.circuit.devices import (
    Capacitor,
    CurrentSource,
    Mosfet,
    MosType,
    Resistor,
    VoltageSource,
)
from repro.circuit.netlist import Netlist
from repro.circuit.solver import (
    dc_operating_point,
    transient,
)
from repro.circuit.technology import CMOS018
from repro.circuit.waveform import pulse


class TestDcLinear:
    def test_voltage_divider(self):
        nl = Netlist()
        nl.add(VoltageSource("V", "in", "0", 2.0))
        nl.add(Resistor("R1", "in", "mid", 1e3))
        nl.add(Resistor("R2", "mid", "0", 3e3))
        op = dc_operating_point(nl)
        assert op["mid"] == pytest.approx(1.5, rel=1e-6)

    def test_current_source_into_resistor(self):
        nl = Netlist()
        nl.add(CurrentSource("I", "0", "n", 1e-3))  # 1 mA into n
        nl.add(Resistor("R", "n", "0", 2e3))
        op = dc_operating_point(nl)
        assert op["n"] == pytest.approx(2.0, rel=1e-5)

    def test_ground_always_zero(self):
        nl = Netlist()
        nl.add(VoltageSource("V", "a", "0", 5.0))
        nl.add(Resistor("R", "a", "0", 1e3))
        assert dc_operating_point(nl)["0"] == 0.0

    def test_series_voltage_sources(self):
        nl = Netlist()
        nl.add(VoltageSource("V1", "a", "0", 1.0))
        nl.add(VoltageSource("V2", "b", "a", 0.5))
        nl.add(Resistor("R", "b", "0", 1e3))
        op = dc_operating_point(nl)
        assert op["b"] == pytest.approx(1.5, rel=1e-6)


class TestDcNonlinear:
    def _inverter(self, vin, vdd=1.8):
        nl = Netlist()
        nl.add(VoltageSource("Vdd", "vdd", "0", vdd))
        nl.add(VoltageSource("Vin", "in", "0", vin))
        nl.add(Mosfet("Mp", MosType.PMOS, "out", "in", "vdd", 2.0, CMOS018))
        nl.add(Mosfet("Mn", MosType.NMOS, "out", "in", "0", 1.0, CMOS018))
        return dc_operating_point(nl)["out"]

    def test_inverter_rails(self):
        assert self._inverter(0.0) == pytest.approx(1.8, abs=0.01)
        assert self._inverter(1.8) == pytest.approx(0.0, abs=0.01)

    def test_inverter_vtc_monotone_decreasing(self):
        outs = [self._inverter(v) for v in np.linspace(0.0, 1.8, 10)]
        assert all(a >= b - 1e-6 for a, b in zip(outs, outs[1:]))

    def test_bridge_divider_against_nmos(self):
        """A bridge fighting a driven transistor settles mid-rail."""
        nl = Netlist()
        nl.add(VoltageSource("Vdd", "vdd", "0", 1.8))
        nl.add(VoltageSource("Vin", "in", "0", 1.8))
        nl.add(Mosfet("Mn", MosType.NMOS, "out", "in", "0", 1.0, CMOS018))
        faulty = nl.with_bridge("out", "vdd", 10e3)
        op = dc_operating_point(faulty)
        assert 0.05 < op["out"] < 1.0

    def test_bistable_cell_respects_seed(self):
        """Cross-coupled inverters settle into the seeded state."""
        def cell(seed_state):
            nl = Netlist()
            nl.add(VoltageSource("Vdd", "vdd", "0", 1.8))
            for (name, out, inp) in (("A", "q", "qb"), ("B", "qb", "q")):
                nl.add(Mosfet(f"Mp{name}", MosType.PMOS, out, inp, "vdd",
                              1.0, CMOS018))
                nl.add(Mosfet(f"Mn{name}", MosType.NMOS, out, inp, "0",
                              2.0, CMOS018))
            seed = {"q": 1.8 * seed_state, "qb": 1.8 * (1 - seed_state)}
            return dc_operating_point(nl, initial=seed)

        op1 = cell(1)
        assert op1["q"] > 1.5 and op1["qb"] < 0.3
        op0 = cell(0)
        assert op0["q"] < 0.3 and op0["qb"] > 1.5


class TestTransient:
    def test_rc_step_response(self):
        """RC charging matches the analytic exponential."""
        r, c = 1e3, 1e-12  # tau = 1 ns
        nl = Netlist()
        nl.add(VoltageSource("V", "in", "0", 0.0,
                             waveform=pulse(0.0, 1.0, 0.0, 1e-6,
                                            t_edge=1e-12)))
        nl.add(Resistor("R", "in", "out", r))
        nl.add(Capacitor("C", "out", "0", c))
        waves = transient(nl, t_stop=5e-9, dt=1e-11, record=["out"])
        out = waves["out"]
        v_at_tau = out.at(1e-9)
        assert v_at_tau == pytest.approx(1.0 - math.exp(-1.0), rel=0.05)
        assert out.at(5e-9) == pytest.approx(1.0, abs=0.02)

    def test_inverter_switches(self):
        nl = Netlist()
        nl.add(VoltageSource("Vdd", "vdd", "0", 1.8))
        nl.add(VoltageSource("Vin", "in", "0", 0.0,
                             waveform=pulse(0.0, 1.8, 1e-9, 2e-9)))
        nl.add(Mosfet("Mp", MosType.PMOS, "out", "in", "vdd", 2.0, CMOS018))
        nl.add(Mosfet("Mn", MosType.NMOS, "out", "in", "0", 1.0, CMOS018))
        nl.add(Capacitor("C", "out", "0", 5e-15))
        waves = transient(nl, t_stop=6e-9, dt=2e-11, record=["out"])
        out = waves["out"]
        # Falls through vdd/2 while the input is high (1-3 ns) and
        # rises back only after the input falls at 3 ns.
        assert out.at(1e-9) > 0.9 > out.at(2e-9)
        assert out.at(3e-9) < 0.9 < out.at(6e-9)

    def test_uic_skips_dc(self):
        """uic starts from the literal initial condition."""
        nl = Netlist()
        nl.add(Resistor("R", "a", "0", 1e3))
        nl.add(Capacitor("C", "a", "0", 1e-12))
        waves = transient(nl, t_stop=3e-9, dt=1e-11, initial={"a": 1.0},
                          uic=True, record=["a"])
        # Discharges toward 0 with tau = 1 ns.
        assert waves["a"].voltage[0] == pytest.approx(1.0)
        assert waves["a"].at(1e-9) == pytest.approx(math.exp(-1.0), rel=0.05)

    def test_invalid_args_rejected(self):
        nl = Netlist()
        nl.add(Resistor("R", "a", "0", 1e3))
        with pytest.raises(ValueError):
            transient(nl, t_stop=0.0, dt=1e-12)
        with pytest.raises(ValueError):
            transient(nl, t_stop=1e-9, dt=-1e-12)
