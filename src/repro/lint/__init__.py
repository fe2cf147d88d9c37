"""``repro.lint``: unified static analysis for the reproduction's inputs.

A pluggable rule engine (:mod:`repro.lint.core`) with three shipped rule
packs, mirroring the pre-ATE / pre-simulator input validation the
paper's industrial flow relies on:

* ``netlist`` (``NET0xx``) -- ERC over :class:`repro.circuit.netlist.Netlist`
  before it reaches the Newton solver;
* ``march`` (``MARCH0xx``) -- march-test lint;
* ``plan`` (``PLAN0xx``) -- stress-suite / test-plan review.

Front doors: :func:`lint_netlist`, :func:`lint_march`, :func:`lint_plan`
(each returns a :class:`LintReport`), :func:`assert_netlist_clean`
(raises :class:`LintError` on error-severity findings; used by
:mod:`repro.defects.injection`), and ``python -m repro lint`` on the
command line.  The rule catalog is documented in
``docs/static_analysis.md``.
"""

from __future__ import annotations

from repro.lint.core import (
    EXIT_CLEAN,
    EXIT_ERRORS,
    EXIT_WARNINGS,
    Finding,
    LintConfig,
    LintError,
    LintIssue,
    LintReport,
    Rule,
    Severity,
    all_rules,
    combined_exit_code,
    expand_rule_selectors,
    get_rule,
    is_known_rule,
    pack_names,
    rule,
    rules_for_pack,
    run_pack,
)

# Importing the rule modules registers the shipped packs.  The ``code``
# pack (repro.lint.code) registers itself the same way but is imported
# lazily by lint_code: it pulls in repro.obs for the event catalog,
# which lightweight consumers of the input packs should not pay for.
from repro.lint import rules_march as _rules_march  # noqa: F401
from repro.lint import rules_netlist as _rules_netlist  # noqa: F401
from repro.lint import rules_plan as _rules_plan  # noqa: F401
from repro.lint.report import as_json_document, render_json, render_text
from repro.lint.rules_netlist import NetlistLintContext
from repro.lint.rules_plan import PlanLintContext

__all__ = [
    "EXIT_CLEAN",
    "EXIT_ERRORS",
    "EXIT_WARNINGS",
    "Finding",
    "LintConfig",
    "LintError",
    "LintIssue",
    "LintReport",
    "NetlistLintContext",
    "PlanLintContext",
    "Rule",
    "Severity",
    "all_rules",
    "as_json_document",
    "assert_netlist_clean",
    "combined_exit_code",
    "expand_rule_selectors",
    "get_rule",
    "is_known_rule",
    "lint_march",
    "lint_netlist",
    "lint_plan",
    "pack_names",
    "render_json",
    "render_text",
    "rule",
    "rules_for_pack",
    "run_pack",
]


def lint_netlist(netlist, tech=None, config: LintConfig | None = None,
                 target: str = "") -> LintReport:
    """Run the netlist ERC pack (``NET0xx``).

    Args:
        netlist: A :class:`repro.circuit.netlist.Netlist`.
        tech: Optional :class:`~repro.circuit.technology.Technology` for
            parameter-bound rules.
        config: Suppression/severity configuration.
        target: Label recorded in the report (defaults to the netlist
            title).
    """
    context = NetlistLintContext(netlist, tech)
    label = target or f"netlist:{netlist.title or '<untitled>'}"
    return run_pack("netlist", context, config, label)


def lint_march(test, config: LintConfig | None = None,
               target: str = "") -> LintReport:
    """Run the march-test pack (``MARCH0xx``) on a ``MarchTest``."""
    label = target or f"march:{getattr(test, 'name', '<anonymous>')}"
    return run_pack("march", test, config, label)


def lint_plan(conditions, tech=None, plans=None, target_dpm=None,
              config: LintConfig | None = None,
              target: str = "plan") -> LintReport:
    """Run the plan pack (``PLAN0xx``) on a stress-condition suite.

    Args:
        conditions: Name -> :class:`repro.stress.StressCondition`.
        tech: Optional technology for the voltage-window rules.
        plans: Optional evaluated subsets
            (:meth:`repro.core.testplan.TestPlanOptimizer.all_plans`).
        target_dpm: Optional DPM target for the reachability rule.
        config: Suppression/severity configuration.
        target: Label recorded in the report.
    """
    context = PlanLintContext(dict(conditions), tech,
                              list(plans) if plans is not None else None,
                              target_dpm)
    return run_pack("plan", context, config, target)


def assert_netlist_clean(netlist, tech=None, target: str = "") -> LintReport:
    """ERC gate: raise :class:`LintError` on error-severity findings.

    Warnings and info findings are tolerated (they are present in the
    returned report).  This is the check :mod:`repro.defects.injection`
    applies to every injected-defect netlist before simulation.
    """
    report = lint_netlist(netlist, tech, None, target)
    if report.errors:
        raise LintError(report)
    return report
