"""The coverage database's row: one (kind, R, condition) detection count.

An IFA campaign (:mod:`repro.ifa.flow`) emits these rows, the coverage
database (:mod:`repro.core.database`) stores and persists them, and the
estimator reads them.  The module needs nothing but ``dataclasses``, so
``repro serve``, which only reads a shipped database, loads neither the
campaign nor numpy.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CoverageRecord:
    """Detected fraction of a defect population at one (R, condition).

    Attributes:
        kind: "bridge" or "open".
        resistance: Defect resistance of the sweep point (ohms).
        condition: Stress-condition name.
        vdd: Supply voltage of the condition.
        period: Clock period of the condition.
        detected: Number of detected sites.
        total: Population size.
        errors: Sites whose behavioural evaluation kept raising and
            were quarantined by the runner (see ``docs/robustness.md``);
            they are counted in neither ``detected`` nor the coverage
            numerator, so coverage degrades conservatively.
    """

    kind: str
    resistance: float
    condition: str
    vdd: float
    period: float
    detected: int
    total: int
    errors: int = 0

    @property
    def coverage(self) -> float:
        return self.detected / self.total if self.total else 0.0

    @property
    def percent(self) -> float:
        return 100.0 * self.coverage
