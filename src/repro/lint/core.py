"""Rule engine for the ``repro.lint`` static-analysis subsystem.

The industrial flow of the paper works because malformed inputs are
rejected *before* the expensive steps: a broken test program never
reaches the ATE and a broken extracted netlist never reaches the
analogue simulator.  This module is the framework half of that guard:

* :class:`Rule` -- one named check with a stable ID (``NET001``,
  ``MARCH003``, ``PLAN002``, ...), a default :class:`Severity`, a title
  and a rationale.  Rules are plain generator functions registered with
  the :func:`rule` decorator and grouped into *packs* (``netlist``,
  ``march``, ``plan``).
* :class:`LintConfig` -- per-run configuration: rule suppression,
  severity overrides and a minimum reported severity.
* :func:`run_pack` -- apply every registered rule of a pack to a
  context object, producing a :class:`LintReport`.

The rule packs themselves live in :mod:`repro.lint.rules_netlist`,
:mod:`repro.lint.rules_march` and :mod:`repro.lint.rules_plan`;
reporters (text/JSON, CI exit codes) in :mod:`repro.lint.report`.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass
from enum import Enum
from typing import Any

#: CI exit codes contract of ``repro lint`` (see docs/static_analysis.md):
#: 0 clean, 1 warnings remain under ``--strict`` (warnings-as-errors),
#: 2 error-severity findings.
EXIT_CLEAN = 0
EXIT_WARNINGS = 1
EXIT_ERRORS = 2


class Severity(Enum):
    """Severity of a finding; ordering is INFO < WARNING < ERROR."""

    INFO = "info"
    WARNING = "warning"
    ERROR = "error"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Finding:
    """What a rule function yields: a message plus optional anchors.

    Attributes:
        message: Human-readable description of the problem.
        location: Where in the linted object the problem sits (a node
            name, ``"element 3"``, a condition name, ...).
        index: Numeric position in the linted object; the code pack
            records the source line here and matches it against
            ``# repro: lint-disable=`` suppressions.
    """

    message: str
    location: str | None = None
    index: int | None = None


@dataclass(frozen=True)
class LintIssue:
    """One finding, bound to the rule that produced it."""

    rule_id: str
    severity: Severity
    message: str
    pack: str
    location: str | None = None
    index: int | None = None

    def __str__(self) -> str:
        where = f" ({self.location})" if self.location else ""
        return f"[{self.severity}] {self.rule_id}: {self.message}{where}"

    def to_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule_id,
            "severity": self.severity.value,
            "message": self.message,
            "pack": self.pack,
            "location": self.location,
        }


CheckFn = Callable[[Any], Iterable[Finding]]


@dataclass(frozen=True)
class Rule:
    """A registered static-analysis rule.

    Attributes:
        rule_id: Stable identifier (``NET001`` ...); never reused once
            published, even if the rule is retired.
        pack: Rule-pack name (``netlist`` / ``march`` / ``plan``).
        title: One-line summary for ``repro lint --list-rules``.
        default_severity: Severity of every finding the rule yields.
        rationale: Why the rule exists (shown in the catalog docs).
        check: Generator of :class:`Finding` for a pack context object.
    """

    rule_id: str
    pack: str
    title: str
    default_severity: Severity
    rationale: str
    check: CheckFn


_REGISTRY: dict[str, Rule] = {}
_PACKS: dict[str, list[Rule]] = {}


def rule(rule_id: str, pack: str, title: str,
         severity: Severity = Severity.ERROR,
         rationale: str = "") -> Callable[[CheckFn], CheckFn]:
    """Decorator registering a check function as a :class:`Rule`."""

    def register(fn: CheckFn) -> CheckFn:
        if rule_id in _REGISTRY:
            raise ValueError(f"duplicate rule id: {rule_id}")
        r = Rule(rule_id, pack, title, severity, rationale, fn)
        _REGISTRY[rule_id] = r
        _PACKS.setdefault(pack, []).append(r)
        return fn

    return register


def get_rule(rule_id: str) -> Rule:
    """Look up a rule by ID (``KeyError`` with choices when unknown)."""
    try:
        return _REGISTRY[rule_id]
    except KeyError:
        raise KeyError(
            f"unknown rule {rule_id!r}; known: {sorted(_REGISTRY)}"
        ) from None


def is_known_rule(rule_id: str) -> bool:
    """Whether ``rule_id`` names a registered rule."""
    return rule_id in _REGISTRY


def expand_rule_selectors(tokens: Iterable[str]) -> frozenset[str]:
    """Expand ``--select`` / ``--ignore`` tokens into concrete rule IDs.

    A token is either an exact rule ID (``DET003``) or a prefix matching
    one or more registered rules (``DET`` selects every determinism
    rule; ``MARCH00`` selects MARCH001..MARCH009).

    Raises:
        KeyError: a token matches no registered rule at all -- typo'd
            filters silently selecting nothing are how gates rot.
    """
    ids: set[str] = set()
    for token in tokens:
        if token in _REGISTRY:
            ids.add(token)
            continue
        matches = [rid for rid in _REGISTRY if rid.startswith(token)]
        if not matches:
            raise KeyError(
                f"unknown rule or rule prefix {token!r}; "
                f"known: {sorted(_REGISTRY)}")
        ids.update(matches)
    return frozenset(ids)


def all_rules() -> list[Rule]:
    """Every registered rule in registration order."""
    return [r for rules in _PACKS.values() for r in rules]


def rules_for_pack(pack: str) -> list[Rule]:
    """The rules of one pack, in registration order."""
    return list(_PACKS.get(pack, []))


def pack_names() -> list[str]:
    return list(_PACKS)


@dataclass(frozen=True)
class LintConfig:
    """Per-run configuration.

    Attributes:
        disabled: Rule IDs to suppress entirely.
        selected: When not ``None``, only these rule IDs run at all
            (``--select``); ``disabled`` still subtracts from the
            selection (``--ignore`` wins over ``--select``).
    """

    disabled: frozenset[str] = frozenset()
    selected: frozenset[str] | None = None

    def disable(self, *rule_ids: str) -> "LintConfig":
        """A copy with additional rules suppressed."""
        for rid in rule_ids:
            get_rule(rid)  # validate early: typo'd suppressions are bugs
        return LintConfig(self.disabled | frozenset(rule_ids), self.selected)

    def select(self, *rule_ids: str) -> "LintConfig":
        """A copy restricted to these rules (added to any selection)."""
        for rid in rule_ids:
            get_rule(rid)
        selected = (self.selected or frozenset()) | frozenset(rule_ids)
        return LintConfig(self.disabled, selected)

    def runs(self, rule_id: str) -> bool:
        """Whether a rule survives the selection/suppression filters."""
        if rule_id in self.disabled:
            return False
        return self.selected is None or rule_id in self.selected


@dataclass
class LintReport:
    """The outcome of running one rule pack over one target.

    Attributes:
        target: Label of the linted object (``"march:MATS"``, ...).
        pack: Rule pack that ran.
        issues: Findings in rule-registration order.
        rules_run: Number of rules executed (after suppression).
    """

    target: str
    pack: str
    issues: list[LintIssue]
    rules_run: int

    def count(self, severity: Severity) -> int:
        return sum(1 for i in self.issues if i.severity is severity)

    @property
    def errors(self) -> list[LintIssue]:
        return [i for i in self.issues if i.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[LintIssue]:
        return [i for i in self.issues if i.severity is Severity.WARNING]

    @property
    def clean(self) -> bool:
        return not self.issues

    def exit_code(self, strict: bool = False) -> int:
        """CI exit code: 0 clean, 1 warnings under ``strict``, 2 errors."""
        if self.errors:
            return EXIT_ERRORS
        if strict and self.warnings:
            return EXIT_WARNINGS
        return EXIT_CLEAN


def combined_exit_code(reports: Iterable[LintReport],
                       strict: bool = False) -> int:
    """The worst exit code across several reports."""
    return max((r.exit_code(strict) for r in reports), default=EXIT_CLEAN)


class LintError(ValueError):
    """Raised by ``assert_*_clean`` helpers when errors are present."""

    def __init__(self, report: LintReport) -> None:
        self.report = report
        details = "; ".join(str(i) for i in report.errors)
        super().__init__(
            f"{report.pack} lint of {report.target or 'target'} found "
            f"{len(report.errors)} error(s): {details}"
        )


def run_pack(pack: str, context: Any, config: LintConfig | None = None,
             target: str = "") -> LintReport:
    """Apply every rule of ``pack`` to ``context``.

    Args:
        pack: Registered pack name.
        context: The pack's context object (see each ``rules_*`` module).
        config: Suppression/severity configuration.
        target: Label recorded in the report.
    """
    cfg = config if config is not None else LintConfig()
    rules = rules_for_pack(pack)
    if not rules:
        raise KeyError(f"unknown rule pack {pack!r}; known: {pack_names()}")
    issues: list[LintIssue] = []
    rules_run = 0
    for r in rules:
        if not cfg.runs(r.rule_id):
            continue
        rules_run += 1
        for finding in r.check(context):
            issues.append(LintIssue(r.rule_id, r.default_severity,
                                    finding.message, r.pack, finding.location,
                                    finding.index))
    return LintReport(target, pack, issues, rules_run)
