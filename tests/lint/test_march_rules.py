"""Tests for the MARCH0xx rule pack."""

from repro.lint import Severity, lint_march
from repro.march.library import (
    MARCH_CM,
    MARCH_G_DEL,
    MARCH_SS,
    MATS,
    STANDARD_TESTS,
)
from repro.march.pause import PauseElement
from repro.march.test import MarchTest


def make(notation):
    return MarchTest.parse("t", notation)


def codes(test):
    return [i.rule_id for i in lint_march(test).issues]


def empty_test():
    """A zero-element MarchTest, bypassing the constructor guard."""
    t = object.__new__(MarchTest)
    object.__setattr__(t, "name", "empty")
    object.__setattr__(t, "elements", ())
    object.__setattr__(t, "description", "")
    return t


class TestCleanInputs:
    def test_march_cm_is_clean(self):
        assert lint_march(MARCH_CM).clean

    def test_library_is_error_free(self):
        for name, test in STANDARD_TESTS.items():
            report = lint_march(test)
            assert report.errors == [], f"{name}: {report.errors}"

    def test_march_g_del_pause_placement_accepted(self):
        assert "MARCH012" not in codes(MARCH_G_DEL)

    def test_march_ss_repeated_reads_within_element_accepted(self):
        # Back-to-back reads inside one element are deliberate (RDF).
        assert "MARCH010" not in codes(MARCH_SS)
        assert "MARCH011" not in codes(MARCH_SS)


class TestMigratedRules:
    def test_march001_pause_only(self):
        t = MarchTest("pauses", (PauseElement(10),))
        assert "MARCH001" in codes(t)

    def test_march001_empty_test_is_an_error(self):
        report = lint_march(empty_test())
        assert any(i.rule_id == "MARCH001"
                   and i.severity is Severity.ERROR
                   for i in report.issues)

    def test_march002_uninitialised_read(self):
        assert "MARCH002" in codes(make("^(r0,w1)"))

    def test_march003_element_inconsistent(self):
        assert "MARCH003" in codes(make("*(w0); ^(r0,w1,r0)"))

    def test_march004_entry_state_mismatch(self):
        assert "MARCH004" in codes(make("*(w0); ^(r1,w0)"))

    def test_march005_no_reads(self):
        assert "MARCH005" in codes(make("*(w0); ^(w1)"))

    def test_march006_never_reads_zero(self):
        t = make("*(w1); ^(r1)")
        assert "MARCH006" in codes(t)
        assert "MARCH007" not in codes(t)

    def test_march007_never_reads_one(self):
        assert "MARCH007" in codes(make("*(w0); ^(r0)"))

    def test_march008_weak_transitions(self):
        assert "MARCH008" in codes(MATS)

    def test_march009_single_direction(self):
        assert "MARCH009" in codes(make("*(w0); ^(r0,w1); ^(r1)"))

    def test_detection_warnings_suppressed_without_reads(self):
        # A read-free test reports only the fatal MARCH005, not the
        # read-polarity/transition/direction noise.
        ids = codes(make("*(w0); ^(w1)"))
        assert "MARCH005" in ids
        for rid in ("MARCH006", "MARCH007", "MARCH008", "MARCH009"):
            assert rid not in ids


class TestNewRules:
    def test_march010_redundant_element(self):
        report = lint_march(make("*(w0); ^(r0); ^(r0)"))
        redundant = [i for i in report.issues if i.rule_id == "MARCH010"]
        assert len(redundant) == 1
        assert redundant[0].severity is Severity.INFO
        assert redundant[0].location == "element 2"

    def test_march010_not_fired_when_write_intervenes(self):
        assert "MARCH010" not in codes(make("*(w0); ^(r0,w0); ^(r0,w0)"))

    def test_march011_unreachable_read(self):
        report = lint_march(make("*(w0); ^(r0,r1,w1)"))
        assert any(i.rule_id == "MARCH011"
                   and i.severity is Severity.ERROR
                   for i in report.issues)

    def test_march011_consistent_repeated_reads_ok(self):
        assert "MARCH011" not in codes(make("*(w0); ^(r0,r0,w1)"))

    def test_march012_pause_before_any_write(self):
        t = MarchTest.parse("t", "Del(10); *(w0); ^(r0)")
        assert "MARCH012" in codes(t)

    def test_march012_trailing_pause_never_observed(self):
        t = MarchTest.parse("t", "*(w0); ^(r0,w1); Del(10)")
        report = lint_march(t)
        assert any(i.rule_id == "MARCH012" and "never" in i.message
                   for i in report.issues)

    def test_march012_adjacent_pauses(self):
        t = MarchTest.parse("t", "*(w0); Del(10); Del(10); ^(r0)")
        report = lint_march(t)
        assert any(i.rule_id == "MARCH012" and "adjacent" in i.message
                   for i in report.issues)


class TestValidity:
    """A test is valid when ``lint_march`` reports no errors."""

    def test_uninitialised_read_invalidates(self):
        assert lint_march(make("^(r0,w1)")).errors

    def test_no_reads_invalidates(self):
        assert lint_march(make("*(w0); ^(w1)")).errors

    def test_warnings_do_not_invalidate(self):
        t = make("*(w0); ^(r0)")
        assert "MARCH007" in codes(t)
        assert not lint_march(t).errors

    def test_str_names_rule_and_severity(self):
        issue = lint_march(make("^(r0)")).errors[0]
        text = str(issue)
        assert "error" in text
        assert issue.rule_id in text
