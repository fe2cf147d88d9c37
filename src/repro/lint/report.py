"""Reporters for lint results: human text and CI-friendly JSON.

The JSON schema (version 1), asserted by ``tests/lint/test_engine.py``::

    {
      "version": 1,
      "tool": "repro.lint",
      "summary": {
        "targets": <int>, "rules_run": <int>,
        "errors": <int>, "warnings": <int>, "info": <int>,
        "exit_code": <0|1|2>
      },
      "issues": [
        {
          "target": <str>, "pack": <str>, "rule": <str>,
          "severity": "error"|"warning"|"info",
          "message": <str>, "location": <str|null>
        }, ...
      ]
    }

Exit-code contract (also exposed as ``EXIT_*`` in
:mod:`repro.lint.core`): 0 = clean, 1 = warnings present and
warnings-as-errors requested (``--strict``), 2 = errors present.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Sequence
from typing import Any

from repro.lint.core import LintReport, Severity, combined_exit_code


def render_text(reports: Iterable[LintReport], verbose: bool = False) -> str:
    """Render reports as readable text, one section per dirty target."""
    reports = list(reports)
    lines: list[str] = []
    for report in reports:
        if report.clean:
            if verbose:
                lines.append(f"{report.target or report.pack}: ok")
            continue
        lines.append(f"== {report.target or report.pack} ==")
        lines.extend(f"  {issue}" for issue in report.issues)
    lines.append(_summary_line(reports))
    return "\n".join(lines)


def render_json(reports: Iterable[LintReport], strict: bool = False) -> str:
    """Render reports as the version-1 JSON document."""
    return json.dumps(as_json_document(list(reports), strict), indent=2)


def as_json_document(reports: Sequence[LintReport],
                     strict: bool = False) -> dict[str, Any]:
    issues = [
        dict(issue.to_dict(), target=report.target)
        for report in reports for issue in report.issues
    ]
    return {
        "version": 1,
        "tool": "repro.lint",
        "summary": {
            "targets": len(reports),
            "rules_run": sum(r.rules_run for r in reports),
            "errors": _count(reports, Severity.ERROR),
            "warnings": _count(reports, Severity.WARNING),
            "info": _count(reports, Severity.INFO),
            "exit_code": combined_exit_code(reports, strict),
        },
        "issues": issues,
    }


def _count(reports: Sequence[LintReport], severity: Severity) -> int:
    return sum(r.count(severity) for r in reports)


def _summary_line(reports: Sequence[LintReport]) -> str:
    return (
        f"{_count(reports, Severity.ERROR)} error(s), "
        f"{_count(reports, Severity.WARNING)} warning(s), "
        f"{_count(reports, Severity.INFO)} info across "
        f"{len(reports)} target(s)"
    )
