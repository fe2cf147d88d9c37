"""Tests for the NET0xx netlist ERC rule pack."""

import pytest

from repro.circuit.devices import (
    Capacitor,
    Mosfet,
    MosType,
    Resistor,
    VoltageSource,
)
from repro.circuit.netlist import Netlist
from repro.circuit.technology import CMOS013, CMOS018
from repro.defects.injection import inject_open_into_decoder
from repro.defects.models import (
    Defect,
    DefectKind,
    OpenSite,
)
from repro.lint import (
    LintError,
    Severity,
    assert_netlist_clean,
    lint_netlist,
)
from repro.lint.demo import demo_broken_netlist
from repro.memory.cell import SixTCell
from repro.memory.decoder import build_decoder_netlist


def codes(report):
    return [i.rule_id for i in report.issues]


def base_netlist():
    """A tiny clean netlist: source -> resistor divider to ground."""
    nl = Netlist("base")
    nl.add(VoltageSource("Vdd", "vdd", "0", 1.8))
    nl.add(Resistor("R1", "vdd", "mid", 1e3))
    nl.add(Resistor("R2", "mid", "0", 1e3))
    return nl


class TestCleanInputs:
    def test_divider_clean(self):
        assert lint_netlist(base_netlist(), CMOS018).clean

    def test_cell_netlist_clean(self):
        nl = SixTCell(CMOS018).standalone_netlist(1.8, 1)
        assert lint_netlist(nl, CMOS018).clean

    def test_decoder_netlist_clean(self):
        nl = build_decoder_netlist(CMOS018, 1.8)
        assert lint_netlist(nl, CMOS018).clean

    def test_injected_open_clean(self):
        d = Defect(DefectKind.OPEN, OpenSite.DECODER_INPUT, 1e6, polarity=1)
        nl = inject_open_into_decoder(CMOS018, 1.8, d)
        assert lint_netlist(nl, CMOS018).clean


class TestNet001Floating:
    def test_gate_only_node_is_floating(self):
        nl = base_netlist()
        nl.add(Mosfet("M1", MosType.NMOS, "mid", "nowhere", "0", 1.0,
                      CMOS018))
        report = lint_netlist(nl, CMOS018)
        floating = [i for i in report.issues if i.rule_id == "NET001"]
        assert [i.location for i in floating] == ["nowhere"]
        assert floating[0].severity is Severity.ERROR

    def test_capacitor_does_not_conduct(self):
        nl = base_netlist()
        nl.add(Capacitor("C1", "island", "0", 1e-15))
        assert "NET001" in codes(lint_netlist(nl, CMOS018))

    def test_channel_conducts(self):
        nl = base_netlist()
        # Drain-source path ties "island" to the driven divider tap.
        nl.add(Mosfet("M1", MosType.NMOS, "island", "mid", "mid", 1.0,
                      CMOS018))
        assert "NET001" not in codes(lint_netlist(nl, CMOS018))


class TestNet002Dangling:
    def test_single_terminal_node_warns(self):
        nl = base_netlist()
        nl.add(Resistor("Rstub", "mid", "stub", 1e3))
        report = lint_netlist(nl, CMOS018)
        dangling = [i for i in report.issues if i.rule_id == "NET002"]
        assert [i.location for i in dangling] == ["stub"]
        assert dangling[0].severity is Severity.WARNING


class TestNet003BridgeEndpoints:
    def test_bridge_to_missing_net(self):
        nl = base_netlist().with_bridge("mid", "ghost", 2e3)
        assert "NET003" in codes(lint_netlist(nl, CMOS018))

    def test_bridge_between_real_nets_ok(self):
        nl = base_netlist().with_bridge("vdd", "mid", 2e3)
        assert "NET003" not in codes(lint_netlist(nl, CMOS018))

    def test_non_bridge_resistors_not_flagged(self):
        nl = base_netlist()
        nl.add(Resistor("Rload", "mid", "tap", 1e3))  # dangling, not bridge
        assert "NET003" not in codes(lint_netlist(nl, CMOS018))


class TestNet004OpenSplice:
    def test_dangling_splice_node(self):
        nl = base_netlist()
        nl.add(Resistor("Ropen", "_open0_M1_gate", "mid", 1e6))
        assert "NET004" in codes(lint_netlist(nl, CMOS018))

    def test_splice_without_resistor(self):
        nl = base_netlist()
        nl.add(Mosfet("M1", MosType.NMOS, "mid", "_open0_M1_gate", "0",
                      1.0, CMOS018))
        nl.add(Mosfet("M2", MosType.NMOS, "mid", "_open0_M1_gate", "0",
                      1.0, CMOS018))
        report = lint_netlist(nl, CMOS018)
        assert any(i.rule_id == "NET004" and "splice resistor" in i.message
                   for i in report.issues)

    def test_with_open_produces_clean_splice(self):
        nl = base_netlist()
        nl.add(Mosfet("M1", MosType.NMOS, "mid", "vdd", "0", 1.0, CMOS018))
        faulty = nl.with_open("M1", "gate", 1e6)
        assert "NET004" not in codes(lint_netlist(faulty, CMOS018))


class TestNet005RailShort:
    def test_hard_short_to_ground(self):
        nl = base_netlist()
        nl.add(Resistor("Rshort", "vdd", "0", 1.0))
        report = lint_netlist(nl, CMOS018)
        assert any(i.rule_id == "NET005" and i.severity is Severity.ERROR
                   for i in report.issues)

    def test_resistive_bridge_is_not_a_short(self):
        nl = base_netlist()
        nl.add(Resistor("Rweak", "vdd", "0", 240e3))
        assert "NET005" not in codes(lint_netlist(nl, CMOS018))

    def test_degenerate_source(self):
        nl = base_netlist()
        nl.add(VoltageSource("Vbad", "mid", "mid", 1.0))
        assert "NET005" in codes(lint_netlist(nl, CMOS018))


class TestNet006ParameterSanity:
    def test_absurd_width(self):
        nl = base_netlist()
        nl.add(Mosfet("M1", MosType.NMOS, "mid", "vdd", "0", 1e4, CMOS018))
        assert "NET006" in codes(lint_netlist(nl, CMOS018))

    def test_mixed_technology(self):
        nl = base_netlist()
        nl.add(Mosfet("M1", MosType.NMOS, "mid", "vdd", "0", 1.0, CMOS013))
        report = lint_netlist(nl, CMOS018)
        assert any(i.rule_id == "NET006" and "technology" in i.message
                   for i in report.issues)
        # Without a reference technology the check cannot apply.
        assert "NET006" not in codes(lint_netlist(nl))

    def test_effectively_open_resistor(self):
        nl = base_netlist()
        nl.add(Resistor("Rhuge", "vdd", "mid", 1e15))
        assert "NET006" in codes(lint_netlist(nl, CMOS018))

    def test_off_chip_capacitance(self):
        nl = base_netlist()
        nl.add(Capacitor("Cbig", "mid", "0", 1e-6))
        assert "NET006" in codes(lint_netlist(nl, CMOS018))

    def test_overdriven_source(self):
        nl = base_netlist()
        nl.add(VoltageSource("Vhot", "mid", "0", 5.0))
        assert "NET006" in codes(lint_netlist(nl, CMOS018))


class TestInjectionGate:
    def test_assert_clean_raises_on_errors(self):
        with pytest.raises(LintError, match="NET001"):
            assert_netlist_clean(demo_broken_netlist(), CMOS018)

    def test_assert_clean_tolerates_warnings(self):
        nl = base_netlist()
        nl.add(Resistor("Rstub", "mid", "stub", 1e3))  # NET002 warning
        report = assert_netlist_clean(nl, CMOS018)
        assert report.warnings and not report.errors

    def test_injection_erc_rejects_broken_base(self, monkeypatch):
        """A corrupted base netlist is caught at injection time."""
        d = Defect(DefectKind.OPEN, OpenSite.DECODER_INPUT, 1e6, polarity=1)
        base = build_decoder_netlist(CMOS018, 1.8)
        base.add(Mosfet("Mstray", MosType.NMOS, "a0b", "floating_gate",
                        "0", 1.0, CMOS018))
        monkeypatch.setattr("repro.defects.injection.build_decoder_netlist",
                            lambda *a, **k: base.copy())
        with pytest.raises(LintError):
            inject_open_into_decoder(CMOS018, 1.8, d)
