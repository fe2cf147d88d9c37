"""``repro.lint.code``: determinism & I/O-discipline analysis of source.

The fourth rule pack (``code``) turns the reproduction's execution
contracts -- byte-identical records across worker counts, atomic
checksummed writes, journal events drawn from a fixed catalog -- into
an AST-level gate over the Python source itself, so a new behaviour
model or scenario pack cannot quietly call unseeded ``random``, write
state with a bare ``open(..., "w")`` or emit an uncatalogued event.

Three thematic rule families plus pack hygiene, all registered in the
shared :mod:`repro.lint.core` engine (stable IDs, severities,
``LintConfig`` suppression, text/JSON reporters):

* ``DET0xx`` (:mod:`~repro.lint.code.rules_det`) -- unseeded
  ``random``/``numpy.random``, wall-clock reads, hash-ordered
  iteration, non-canonical ``json.dumps`` reaching disk;
* ``IO0xx`` (:mod:`~repro.lint.code.rules_io`) -- writes/renames
  outside :mod:`repro.runner.atomic`, write+rename without fsync;
* ``OBS0xx`` (:mod:`~repro.lint.code.rules_obs`) -- ``emit`` call
  sites cross-checked against
  :data:`repro.obs.events.EVENT_CATALOG`;
* ``CODE0xx`` (:mod:`~repro.lint.code.rules_meta`) -- suppression
  hygiene and parse failures.

Findings are suppressed per line with ``# repro: lint-disable=ID``
(comma-separate several IDs; follow with a justification).  Front
doors: :func:`lint_code_file`, :func:`lint_code_source`,
:func:`lint_code_paths`, and ``repro lint code [paths]`` on the
command line.  The catalog is documented in
``docs/static_analysis.md``; the whole pack is self-applied --
``repro lint code src/repro`` exits 0 -- and gated in
``scripts/check.sh``.
"""

from __future__ import annotations

from pathlib import Path

from repro.lint.code.context import CodeLintContext

# Importing the rule modules registers the pack.
from repro.lint.code import rules_det as _rules_det  # noqa: F401
from repro.lint.code import rules_io as _rules_io  # noqa: F401
from repro.lint.code import rules_meta as _rules_meta  # noqa: F401
from repro.lint.code import rules_obs as _rules_obs  # noqa: F401
from repro.lint.core import (
    LintConfig,
    LintIssue,
    LintReport,
    get_rule,
    run_pack,
)

__all__ = [
    "CodeLintContext",
    "lint_code_file",
    "lint_code_paths",
    "lint_code_source",
]


def _synthetic_issue(rule_id: str, message: str, location: str,
                     index: int, config: LintConfig) -> LintIssue | None:
    """A front-door-synthesised issue, respecting the config filters."""
    if not config.runs(rule_id):
        return None
    r = get_rule(rule_id)
    return LintIssue(rule_id, r.default_severity, message, r.pack, location,
                     index)


def lint_code_source(source: str, path: str | Path = "<string>",
                     config: LintConfig | None = None) -> LintReport:
    """Run the ``code`` pack over source text.

    Args:
        source: Python source.
        path: Display path; also drives role classification (test /
            bench / atomic / worker module) -- see
            :class:`~repro.lint.code.context.CodeLintContext`.
        config: Suppression/severity/selection configuration.

    Returns:
        A per-file :class:`LintReport` (target = the path).  Findings
        on lines carrying a matching ``# repro: lint-disable=ID``
        comment are dropped; suppressions that matched nothing are
        reported as ``CODE002``; a ``SyntaxError`` becomes a single
        ``CODE003`` error finding.
    """
    cfg = config if config is not None else LintConfig()
    target = str(path)
    try:
        ctx = CodeLintContext.from_source(source, path)
    except SyntaxError as exc:
        issue = _synthetic_issue(
            "CODE003",
            f"file does not parse: {exc.msg} (line {exc.lineno})",
            f"{path}:{exc.lineno or 0}", exc.lineno or 0, cfg)
        return LintReport(target, "code", [issue] if issue else [], 1)
    report = run_pack("code", ctx, cfg, target)

    used: set[tuple[int, str]] = set()
    kept: list[LintIssue] = []
    for issue in report.issues:
        line = issue.index
        if (line is not None and issue.rule_id
                in ctx.suppressions.get(line, frozenset())):
            used.add((line, issue.rule_id))
            continue
        kept.append(issue)

    # CODE002: suppressions whose rule ran here yet matched no finding.
    for lineno in sorted(ctx.suppressions):
        for rid in sorted(ctx.suppressions[lineno]):
            if rid == "CODE002" or (lineno, rid) in used:
                continue
            if not cfg.runs(rid):
                continue  # the rule never ran: absence proves nothing
            try:
                if get_rule(rid).pack != "code":
                    continue  # CODE001's finding, not an unused one
            except KeyError:
                continue  # likewise
            issue = _synthetic_issue(
                "CODE002",
                f"suppression of {rid} matched no finding on this line; "
                "delete the stale lint-disable",
                f"{path}:{lineno}", lineno, cfg)
            if issue is not None and "CODE002" not in ctx.suppressions.get(
                    lineno, frozenset()):
                kept.append(issue)

    return LintReport(target, "code", kept, report.rules_run)


def lint_code_file(path: str | Path,
                   config: LintConfig | None = None) -> LintReport:
    """Run the ``code`` pack over one source file."""
    path = Path(path)
    return lint_code_source(path.read_text(encoding="utf-8"), path, config)


def _iter_sources(paths: list[str | Path] | list[Path]) -> list[Path]:
    """Expand files/directories into a sorted, deduplicated file list."""
    out: set[Path] = set()
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            for found in entry.rglob("*.py"):
                if not any(part == "__pycache__" or part.startswith(".")
                           or part.endswith(".egg-info")
                           for part in found.parts):
                    out.add(found)
        else:
            out.add(entry)
    return sorted(out)


def lint_code_paths(paths, config: LintConfig | None = None
                    ) -> list[LintReport]:
    """Run the ``code`` pack over files and/or directory trees.

    Args:
        paths: Files and directories; directories are walked for
            ``*.py`` (skipping ``__pycache__``, hidden and
            ``.egg-info`` components).
        config: Suppression/severity/selection configuration.

    Returns:
        One report per file, in sorted path order.

    Raises:
        FileNotFoundError: an explicit file path does not exist.
    """
    return [lint_code_file(path, config) for path in _iter_sources(paths)]
