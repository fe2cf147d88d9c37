"""Table renderers: reproduce the paper's tabular outputs as text.

The flagship is :func:`render_table1` -- the paper's Table 1 ("Defect
Coverage and DPM Estimator"): fault coverage per bridge resistance per
supply condition, the R-distribution-weighted defect coverage and the
normalised DPM, optionally side-by-side with the paper's published
numbers.
"""

from __future__ import annotations

from repro.core.estimator import EstimatorReport
from repro.ifa.flow import TABLE1_RESISTANCES

#: The paper's published Table 1 (CMOS 0.18 um, resistive bridges).
PAPER_TABLE1: dict[str, dict] = {
    "VLV": {
        "voltage": 1.00,
        "fault_coverage": {20.0: 99.61, 1e3: 98.57, 10e3: 98.57, 90e3: 88.90},
        "defect_coverage": 98.92,
        "dpm_normalised": 1.0,
    },
    "Vmin": {
        "voltage": 1.65,
        "fault_coverage": {20.0: 97.76, 1e3: 86.95, 10e3: 86.95, 90e3: 77.91},
        "defect_coverage": 95.15,
        "dpm_normalised": 4.4,
    },
    "Vnom": {
        "voltage": 1.80,
        "fault_coverage": {20.0: 97.58, 1e3: 87.90, 10e3: 86.95, 90e3: 30.81},
        "defect_coverage": 95.10,
        "dpm_normalised": 4.45,
    },
    "Vmax": {
        "voltage": 1.95,
        "fault_coverage": {20.0: 95.65, 1e3: 87.89, 10e3: 87.82, 90e3: 1.22},
        "defect_coverage": 89.76,
        "dpm_normalised": 9.3,
    },
}

#: Condition order of Table 1 (supply ascending).
TABLE1_ORDER = ("VLV", "Vmin", "Vnom", "Vmax")


def render_table1(report: EstimatorReport,
                  compare_paper: bool = True) -> str:
    """Render the estimator's bridge report as the paper's Table 1.

    The resistance columns are the campaign's ``TABLE1_RESISTANCES``.

    Args:
        report: Estimator output (``kind='bridge'``).
        compare_paper: Append the paper's published value in
            parentheses next to every measured number.

    Returns:
        A fixed-width text table.
    """
    header = ["Condition", "Vdd"]
    header += [_fmt_r(r) for r in TABLE1_RESISTANCES]
    header += ["DefCov %", "DPM(norm)"]
    rows = [header]

    for name in TABLE1_ORDER:
        try:
            est = report.by_condition(name)
        except KeyError:
            continue
        paper = PAPER_TABLE1.get(name, {})
        row = [name, f"{paper.get('voltage', 0.0):.2f} V"]
        for r in TABLE1_RESISTANCES:
            measured = 100.0 * _nearest_coverage(est.fault_coverage, r)
            cell = f"{measured:6.2f}"
            if compare_paper and r in paper.get("fault_coverage", {}):
                cell += f" ({paper['fault_coverage'][r]:5.2f})"
            row.append(cell)
        dc = f"{100.0 * est.defect_coverage:6.2f}"
        if compare_paper and "defect_coverage" in paper:
            dc += f" ({paper['defect_coverage']:5.2f})"
        row.append(dc)
        norm = f"{est.dpm_normalised:5.2f}x"
        if compare_paper and "dpm_normalised" in paper:
            norm += f" ({paper['dpm_normalised']:.2f}x)"
        row.append(norm)
        rows.append(row)
    return _render_grid(rows)


def render_coverage_matrix(matrix: dict[str, dict[str, object]]) -> str:
    """Render a test x fault-class coverage matrix (from
    :func:`repro.faults.coverage.coverage_matrix`)."""
    if not matrix:
        return "(empty matrix)"
    classes = sorted(next(iter(matrix.values())).keys())
    rows = [["Test"] + classes]
    for test_name, row in matrix.items():
        rows.append(
            [test_name] + [f"{row[fc].percent:6.1f}" for fc in classes]
        )
    return _render_grid(rows)


def _fmt_r(r: float) -> str:
    if r >= 1e6:
        return f"{r / 1e6:g} Mohm"
    if r >= 1e3:
        return f"{r / 1e3:g} kohm"
    return f"{r:g} ohm"


def _nearest_coverage(fc: dict[float, float], r: float) -> float:
    if r in fc:
        return fc[r]
    nearest = min(fc, key=lambda x: abs(x - r))
    return fc[nearest]


def _render_grid(rows: list[list[str]]) -> str:
    widths = [
        max(len(str(row[i])) for row in rows)
        for i in range(len(rows[0]))
    ]
    lines = []
    for idx, row in enumerate(rows):
        line = "  ".join(str(c).rjust(w) for c, w in zip(row, widths))
        lines.append(line)
        if idx == 0:
            lines.append("-" * len(line))
    return "\n".join(lines)
