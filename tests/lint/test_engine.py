"""Tests for the repro.lint rule engine, config and reporters."""

import json

import pytest

from repro.lint import (
    EXIT_CLEAN,
    EXIT_ERRORS,
    EXIT_WARNINGS,
    Finding,
    LintConfig,
    LintError,
    LintReport,
    Severity,
    all_rules,
    as_json_document,
    combined_exit_code,
    get_rule,
    lint_march,
    lint_netlist,
    render_json,
    render_text,
    rule,
    rules_for_pack,
    run_pack,
)
from repro.lint.demo import demo_broken_netlist
from repro.march.library import MARCH_CM, MATS

# A private pack exercising the engine without touching shipped packs.
# Guarded so repeated imports (pytest reruns in one process) don't
# re-register.
if not rules_for_pack("_enginetest"):
    @rule("TST001", "_enginetest", "always fires",
          severity=Severity.WARNING, rationale="engine test")
    def _always(ctx):
        yield Finding("fired", location="here")

    @rule("TST002", "_enginetest", "fires on truthy context",
          severity=Severity.ERROR, rationale="engine test")
    def _on_truthy(ctx):
        if ctx:
            yield Finding("context was truthy")

    @rule("TST003", "_enginetest", "info noise",
          severity=Severity.INFO, rationale="engine test")
    def _info(ctx):
        yield Finding("informational")


class TestRegistry:
    def test_rules_have_unique_stable_ids(self):
        ids = [r.rule_id for r in all_rules()]
        assert len(ids) == len(set(ids))

    def test_shipped_packs_present(self):
        assert rules_for_pack("netlist")
        assert rules_for_pack("march")
        assert rules_for_pack("plan")

    def test_get_rule(self):
        assert get_rule("NET001").pack == "netlist"
        with pytest.raises(KeyError, match="unknown rule"):
            get_rule("NOPE999")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="duplicate rule id"):
            rule("TST001", "_enginetest", "dup")(lambda ctx: [])

    def test_unknown_pack_rejected(self):
        with pytest.raises(KeyError, match="unknown rule pack"):
            run_pack("no-such-pack", None)


class TestConfig:
    def test_suppression(self):
        report = run_pack("_enginetest", True,
                          LintConfig().disable("TST001", "TST002"))
        assert [i.rule_id for i in report.issues] == ["TST003"]
        assert report.rules_run == 1

    def test_suppressing_unknown_rule_is_an_error(self):
        with pytest.raises(KeyError):
            LintConfig().disable("TYPO001")



class TestExitCodes:
    def test_clean_is_zero(self):
        assert lint_march(MARCH_CM).exit_code() == EXIT_CLEAN

    def test_warnings_only_strict_gate(self):
        report = lint_march(MATS)
        assert report.errors == []
        assert report.warnings
        assert report.exit_code() == EXIT_CLEAN
        assert report.exit_code(strict=True) == EXIT_WARNINGS

    def test_errors_dominate(self):
        report = lint_netlist(demo_broken_netlist())
        assert report.exit_code() == EXIT_ERRORS
        assert report.exit_code(strict=True) == EXIT_ERRORS

    def test_combined_exit_code(self):
        reports = [lint_march(MARCH_CM), lint_march(MATS)]
        assert combined_exit_code(reports) == EXIT_CLEAN
        assert combined_exit_code(reports, strict=True) == EXIT_WARNINGS
        reports.append(lint_netlist(demo_broken_netlist()))
        assert combined_exit_code(reports, strict=False) == EXIT_ERRORS
        assert combined_exit_code([]) == EXIT_CLEAN


class TestReporters:
    def test_text_mentions_rule_ids_and_summary(self):
        text = render_text([lint_netlist(demo_broken_netlist())])
        assert "NET001" in text and "NET003" in text
        assert "error(s)" in text

    def test_text_hides_clean_targets_unless_verbose(self):
        clean = lint_march(MARCH_CM, target="march:March C-")
        assert "March C-" not in render_text([clean])
        assert "march:March C-: ok" in render_text([clean], verbose=True)

    def test_json_schema(self):
        doc = json.loads(render_json([lint_netlist(demo_broken_netlist())]))
        assert doc["version"] == 1
        assert doc["tool"] == "repro.lint"
        summary = doc["summary"]
        assert set(summary) == {"targets", "rules_run", "errors",
                                "warnings", "info", "exit_code"}
        assert summary["errors"] == 2 and summary["exit_code"] == EXIT_ERRORS
        for issue in doc["issues"]:
            assert set(issue) == {"rule", "severity", "message", "pack",
                                  "location", "target"}
        assert {i["rule"] for i in doc["issues"]} >= {"NET001", "NET003"}

    def test_json_document_counts_match_reports(self):
        reports = [lint_march(MATS), lint_march(MARCH_CM)]
        doc = as_json_document(reports)
        assert doc["summary"]["targets"] == 2
        assert doc["summary"]["warnings"] == len(lint_march(MATS).warnings)


class TestLintError:
    def test_carries_report_and_details(self):
        report = LintReport("t", "netlist", lint_netlist(
            demo_broken_netlist()).issues, 6)
        err = LintError(report)
        assert err.report is report
        assert "NET001" in str(err)
