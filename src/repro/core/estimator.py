"""The Fault Coverage and DPM Estimator -- the paper's core deliverable.

"The users can enter the four design parameters to the Fault Coverage
Estimator which are: the #X rows, the #Y columns, the #B bits per word
and the number of Z blocks (optional).  The estimator gives the fault
coverage and the DPM level based on a certain yield.  We relieve the
users from the burden of running a time consuming IFA analysis."
(paper, Section 3)

:class:`FaultCoverageEstimator` wraps a pre-calculated
:class:`~repro.core.database.CoverageDatabase`; given a memory geometry
it reports, per stress condition:

* fault coverage at each swept resistance (Table 1's middle columns),
* defect coverage (fault coverage weighted by the fab R-distribution),
* yield (from area and D0) and the Williams-Brown DPM,
* DPM normalised to the best condition (the paper normalises VLV = 1x).

Only the yield depends on the geometry.  The coverage columns come from
:meth:`~repro.core.database.CoverageDatabase.coverage_table`, integrated
once per (database, kind, distribution); a query adds the yield, the
DPM and the normalisation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.database import CoverageDatabase
from repro.core.williams_brown import defect_level, dpm, poisson_yield
from repro.defects.distribution import (
    DefectDensity,
    ResistanceDistribution,
    default_bridge_distribution,
    default_open_distribution,
)
from repro.memory.geometry import MemoryGeometry


class EmptyReportError(ValueError):
    """An :class:`EstimatorReport` with no condition estimates was queried.

    :meth:`FaultCoverageEstimator.estimate` never builds such a report
    (a kind absent from the database raises ``KeyError`` up front), so
    this only fires on hand-built reports -- but when it does, the
    message names the report instead of the bare ``min() arg is an
    empty sequence`` it used to surface.
    """


@dataclass(frozen=True)
class ConditionEstimate:
    """Estimator output for one stress condition.

    Attributes:
        condition: Condition name.
        fault_coverage: Map resistance (ohms) -> fault coverage [0, 1].
        defect_coverage: R-distribution-weighted coverage [0, 1].
        relative_coverage: Coverage relative to the *detectable*
            population (the per-R best-condition envelope); meaningful
            for opens where most of the R distribution is electrically
            benign at every condition.
        dpm: Williams-Brown defect level in parts per million.
        dpm_normalised: DPM relative to the suite's best condition
            (1.0 = best, the paper's "1x").
    """

    condition: str
    fault_coverage: dict[float, float]
    defect_coverage: float
    dpm: float
    dpm_normalised: float = field(default=0.0)
    relative_coverage: float = field(default=0.0)

    def with_normalisation(self, best_dpm: float) -> "ConditionEstimate":
        """This estimate with ``dpm_normalised`` set against ``best_dpm``.

        A perfect-coverage suite has ``best_dpm == 0``; the best
        condition's ``0/0`` then normalises to ``1.0`` (it is exactly
        as good as itself, the paper's "1x"), not ``inf``.  A non-zero
        DPM against a zero best is genuinely infinitely worse.
        """
        if best_dpm > 0:
            norm = self.dpm / best_dpm
        else:
            norm = 1.0 if self.dpm <= 0 else float("inf")
        return ConditionEstimate(self.condition, self.fault_coverage,
                                 self.defect_coverage, self.dpm, norm,
                                 self.relative_coverage)


@dataclass(frozen=True)
class EstimatorReport:
    """Full estimator output (one kind of defect).

    Attributes:
        kind: "bridge" or "open".
        geometry: The queried memory organisation.
        yield_fraction: Poisson yield used for the DPM model.
        estimates: Per-condition results, in suite order.
    """

    kind: str
    geometry: MemoryGeometry
    yield_fraction: float
    estimates: tuple[ConditionEstimate, ...]

    def best_condition(self) -> ConditionEstimate:
        """The condition with the lowest DPM.

        Raises:
            EmptyReportError: the report carries no estimates.
        """
        if not self.estimates:
            raise EmptyReportError(
                f"estimator report for kind={self.kind!r} "
                f"({self.geometry}) has no condition estimates")
        return min(self.estimates, key=lambda e: e.dpm)

    def by_condition(self, name: str) -> ConditionEstimate:
        for est in self.estimates:
            if est.condition == name:
                return est
        raise KeyError(f"no estimate for condition {name!r}")

    def dpm_ratio(self, worse: str, better: str) -> float:
        """E.g. ``dpm_ratio('Vmax', 'VLV')`` -- the paper's ~9.3x.

        ``0/0`` (both conditions escape-free) is ``1.0`` -- equal, not
        infinitely worse; only a non-zero DPM over a zero one is
        ``inf``.
        """
        b = self.by_condition(better).dpm
        w = self.by_condition(worse).dpm
        if b <= 0:
            return 1.0 if w <= 0 else float("inf")
        return w / b


class FaultCoverageEstimator:
    """Estimate fault coverage / defect coverage / DPM from the database.

    Args:
        database: Pre-calculated coverage results (from an
            :class:`~repro.ifa.flow.IfaCampaign` or loaded from disk).
        bridge_distribution: Fab bridge-resistance distribution.
        open_distribution: Fab open-resistance distribution.
        density: Defect density (for the yield model).
    """

    def __init__(
        self,
        database: CoverageDatabase,
        bridge_distribution: ResistanceDistribution | None = None,
        open_distribution: ResistanceDistribution | None = None,
        density: DefectDensity | None = None,
    ) -> None:
        self.database = database
        self.bridge_distribution = (bridge_distribution
                                    or default_bridge_distribution())
        self.open_distribution = open_distribution or default_open_distribution()
        self.density = density if density is not None else DefectDensity()

    # ------------------------------------------------------------------
    def yield_for(self, geometry: MemoryGeometry) -> float:
        """Poisson yield of the queried memory (paper eq. (2))."""
        return poisson_yield(geometry.array_area_um2(), self.density.d0_per_cm2)

    def estimate(self, geometry: MemoryGeometry, kind: str = "bridge",
                 yield_fraction: float | None = None) -> EstimatorReport:
        """Run the estimator for a memory geometry.

        Args:
            geometry: #X rows, #Y columns, #B bits, #Z blocks.
            kind: Defect kind to report ("bridge" reproduces Table 1).
            yield_fraction: Override the yield (the paper's estimator
                asks for "a certain yield"); derived from area x D0 when
                omitted.

        Returns:
            An :class:`EstimatorReport` with per-condition coverage and
            normalised DPM.

        Raises:
            ValueError: ``kind`` is not a defect kind, or the yield is
                outside ``(0, 1]``.
            KeyError: the database holds no records for ``kind`` (same
                message path as
                :meth:`~repro.core.database.CoverageDatabase.coverage`).
        """
        if kind not in ("bridge", "open"):
            raise ValueError("kind must be 'bridge' or 'open'")
        if not self.database.conditions(kind):
            raise KeyError(
                f"no records for kind={kind!r}; "
                f"available kinds: {self.database.kinds()}")
        dist = (self.bridge_distribution if kind == "bridge"
                else self.open_distribution)
        y = (self.yield_for(geometry) if yield_fraction is None
             else yield_fraction)
        if not 0.0 < y <= 1.0:
            raise ValueError(f"yield must be in (0, 1], got {y}")

        estimates = [
            ConditionEstimate(
                condition=row.condition,
                fault_coverage=dict(row.fault_coverage),
                defect_coverage=row.defect_coverage,
                dpm=dpm(y, row.defect_coverage),
                relative_coverage=row.relative_coverage,
            )
            for row in self.database.coverage_table(kind, dist)
        ]
        best = min(e.dpm for e in estimates) if estimates else 0.0
        normalised = tuple(e.with_normalisation(best) for e in estimates)
        return EstimatorReport(kind, geometry, y, normalised)

    def escapes_per_million(self, geometry: MemoryGeometry, kind: str,
                            condition: str) -> float:
        """Convenience: the DPM of one condition alone."""
        report = self.estimate(geometry, kind)
        return report.by_condition(condition).dpm
