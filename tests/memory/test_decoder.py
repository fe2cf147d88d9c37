"""Tests for repro.memory.decoder."""

import pytest

from repro.circuit.devices import Mosfet
from repro.circuit.solver import dc_operating_point
from repro.circuit.technology import CMOS018
from repro.memory.decoder import (
    build_decoder_netlist,
    decoder_input_waveforms,
)


class TestDecoderNetlist:
    def test_structure(self):
        nl = build_decoder_netlist(CMOS018, 1.8, address_bits=2)
        mosfets = list(nl.devices_of_type(Mosfet))
        # 2 input inverters (2 devices each) + 4 rows x (2 pull-ups +
        # 2 stack + 2 driver).
        assert len(mosfets) == 4 + 4 * 6
        assert "wl0" in nl.nodes and "wl3" in nl.nodes

    def test_dc_selects_correct_wordline(self):
        vdd = 1.8
        nl = build_decoder_netlist(CMOS018, vdd, address_bits=2)
        nl["Va0"].value = vdd   # address = 0b01
        nl["Va1"].value = 0.0
        op = dc_operating_point(nl)
        assert op["wl1"] > 0.9 * vdd
        for other in ("wl0", "wl2", "wl3"):
            assert op[other] < 0.1 * vdd

    def test_every_address_selects_exactly_one(self):
        vdd = 1.8
        for address in range(4):
            nl = build_decoder_netlist(CMOS018, vdd, address_bits=2)
            nl["Va0"].value = vdd * (address & 1)
            nl["Va1"].value = vdd * ((address >> 1) & 1)
            op = dc_operating_point(nl)
            high = [r for r in range(4) if op[f"wl{r}"] > 0.9 * vdd]
            assert high == [address]

    def test_bits_out_of_range(self):
        with pytest.raises(ValueError):
            build_decoder_netlist(CMOS018, 1.8, address_bits=5)


class TestInputWaveforms:
    def test_waveform_values_at_cycle_centres(self):
        vdd = 1.8
        seq = [0, 1, 3, 2]
        waves = decoder_input_waveforms(seq, 10e-9, vdd, 2)
        for i, address in enumerate(seq):
            t_mid = (i + 0.5) * 10e-9
            for j in range(2):
                expected = vdd * ((address >> j) & 1)
                assert waves[f"a{j}"](t_mid) == pytest.approx(expected)

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            decoder_input_waveforms([0, 1], 0.0, 1.8, 1)
