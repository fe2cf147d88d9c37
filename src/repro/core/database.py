"""The pre-calculated coverage database.

"Calculating the fault coverage precisely would take years of simulation
time, but using a database with precalculated simulation results makes
the fault coverage estimation an easy job." (paper, Section 3)

:class:`CoverageDatabase` stores
:class:`~repro.core.records.CoverageRecord` rows indexed by (defect
kind, condition, resistance), supports log-R interpolation for
resistances between sweep points, and persists to/from JSON so a
campaign can be run once and shipped with the tool -- exactly the
deployment model the paper describes for its customers.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Callable, NamedTuple

from repro.core.records import CoverageRecord
from repro.runner.atomic import (
    EnvelopeError,
    atomic_write_text,
    temp_path_for,
    unwrap_envelope,
    wrap_envelope,
)

#: Envelope identity of the persisted database format.
DB_SCHEMA = "repro.coverage-database"
DB_VERSION = 1

#: Points of the quantile grid the coverage integrals run over.
COVERAGE_GRID_POINTS = 96


class DatabaseCorruptError(RuntimeError):
    """A coverage-database file exists but cannot be trusted.

    Raised instead of the raw ``JSONDecodeError``/``KeyError`` a corrupt
    or truncated file used to surface: the message names the file and
    the specific defect so a shipped database that rotted in transit is
    diagnosable from the error alone.

    Attributes:
        path: The offending file.
        defect: What exactly is wrong with it.
    """

    def __init__(self, path: str | Path, defect: str) -> None:
        self.path = Path(path)
        self.defect = defect
        super().__init__(f"coverage database {self.path}: {defect}")


class CoverageRow(NamedTuple):
    """One condition's geometry-independent estimator inputs.

    Attributes:
        condition: Condition name.
        fault_coverage: ``(resistance, coverage)`` at every swept
            resistance of the kind, ascending.
        defect_coverage: :meth:`CoverageDatabase.weighted_coverage`.
        relative_coverage: ``defect_coverage`` over the kind's
            :meth:`CoverageDatabase.envelope_coverage` (1.0 when the
            envelope is 0).
    """

    condition: str
    fault_coverage: tuple[tuple[float, float], ...]
    defect_coverage: float
    relative_coverage: float


class CoverageDatabase:
    """Queryable store of per-(kind, condition, R) coverage results."""

    def __init__(self, records: list[CoverageRecord] | None = None) -> None:
        self._records: list[CoverageRecord] = []
        # (kind, condition) -> sorted list of (resistance, coverage)
        self._index: dict[tuple[str, str], list[tuple[float, float]]] = {}
        # (kind, distribution) -> coverage_table rows, built on first use
        self._tables: dict[tuple[str, Any], tuple[CoverageRow, ...]] = {}
        if records:
            self.add_records(records)

    # ------------------------------------------------------------------
    # Population
    # ------------------------------------------------------------------
    def add_records(self, records: list[CoverageRecord]) -> None:
        """Append records and rebuild the query index.

        Raises:
            ValueError: a record carries a non-positive or non-finite
                resistance.  The log-R interpolation in
                :meth:`coverage` takes ``log(R)`` of every stored
                sweep point, so one bad row would poison every
                interpolated query with a bare ``math domain error``;
                rejecting it here names the offending record instead.
        """
        for i, rec in enumerate(records):
            if not (rec.resistance > 0.0
                    and math.isfinite(rec.resistance)):
                raise ValueError(
                    f"record {i} (kind={rec.kind!r}, "
                    f"condition={rec.condition!r}) has non-positive or "
                    f"non-finite resistance {rec.resistance!r}; "
                    "log-R interpolation requires R > 0")
        self._records.extend(records)
        self._rebuild_index()

    def _rebuild_index(self) -> None:
        self._index.clear()
        self._tables.clear()
        grouped: dict[tuple[str, str], dict[float, CoverageRecord]] = {}
        for rec in self._records:
            key = (rec.kind, rec.condition)
            grouped.setdefault(key, {})[rec.resistance] = rec
        for key, by_r in grouped.items():
            self._index[key] = sorted(
                (r, rec.coverage) for r, rec in by_r.items()
            )

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> list[CoverageRecord]:
        return list(self._records)

    def kinds(self) -> list[str]:
        """Defect kinds with at least one stored record."""
        return sorted({k for (k, _) in self._index})

    def conditions(self, kind: str = "bridge") -> list[str]:
        return sorted({c for (k, c) in self._index if k == kind})

    def resistances(self, kind: str = "bridge") -> list[float]:
        out: set[float] = set()
        for (k, _), points in self._index.items():
            if k == kind:
                out.update(r for r, _ in points)
        return sorted(out)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def coverage(self, kind: str, condition: str, resistance: float) -> float:
        """Fault coverage at a resistance, log-R interpolated.

        Outside the swept range the nearest endpoint is used (coverage
        curves are monotone-flat at the extremes: very low R is
        detected-or-not regardless, very high R saturates).
        """
        key = (kind, condition)
        if key not in self._index:
            raise KeyError(
                f"no records for kind={kind!r}, condition={condition!r}; "
                f"available: {sorted(self._index)}"
            )
        points = self._index[key]
        if resistance <= points[0][0]:
            return points[0][1]
        if resistance >= points[-1][0]:
            return points[-1][1]
        for (r0, c0), (r1, c1) in zip(points, points[1:]):
            if r0 <= resistance <= r1:
                if r1 == r0:
                    return c0
                frac = (math.log(resistance) - math.log(r0)) / (
                    math.log(r1) - math.log(r0))
                return c0 + frac * (c1 - c0)
        raise AssertionError("unreachable")

    def envelope_coverage(self, kind: str, distribution) -> float:
        """Weighted coverage of the best condition at every resistance.

        The per-R maximum over all stored conditions approximates the
        detectable fraction of the defect population (the union of the
        suite, up to correlations) -- the denominator for
        detectability-relative coverage.  Matters mostly for opens,
        where much of the resistance distribution is electrically
        benign at every condition.
        """
        conditions = self.conditions(kind)
        if not conditions:
            raise KeyError(f"no records for kind={kind!r}")
        grid = distribution.quantile_grid(COVERAGE_GRID_POINTS)
        total = 0.0
        prev_cdf = distribution.cdf(grid[0])

        def best(r: float) -> float:
            return max(self.coverage(kind, c, r) for c in conditions)

        total += prev_cdf * best(grid[0])
        for r0, r1 in zip(grid, grid[1:]):
            cdf1 = distribution.cdf(r1)
            total += (cdf1 - prev_cdf) * best(math.sqrt(r0 * r1))
            prev_cdf = cdf1
        total += (1.0 - prev_cdf) * best(grid[-1])
        return min(max(total, 0.0), 1.0)

    def weighted_coverage(self, kind: str, condition: str,
                          distribution) -> float:
        """Defect coverage: fault coverage weighted by the resistance
        distribution (the paper's Section 3.1 step from fault coverage to
        defect coverage).

        Numerically integrates coverage(R) dP(R) over the distribution's
        :data:`COVERAGE_GRID_POINTS`-point quantile grid.
        """
        grid = distribution.quantile_grid(COVERAGE_GRID_POINTS)
        total = 0.0
        prev_cdf = distribution.cdf(grid[0])
        total += prev_cdf * self.coverage(kind, condition, grid[0])
        for r0, r1 in zip(grid, grid[1:]):
            cdf1 = distribution.cdf(r1)
            mass = cdf1 - prev_cdf
            mid = math.sqrt(r0 * r1)
            total += mass * self.coverage(kind, condition, mid)
            prev_cdf = cdf1
        total += (1.0 - prev_cdf) * self.coverage(kind, condition, grid[-1])
        return min(max(total, 0.0), 1.0)

    def coverage_table(self, kind: str,
                       distribution) -> tuple[CoverageRow, ...]:
        """Per-condition coverage rows of ``kind``, in condition order.

        Everything the estimator reports that does not depend on the
        queried geometry.  The rows are integrated on the first call for
        a (kind, distribution) pair and reused until :meth:`add_records`
        changes the records.  The key is the distribution object itself
        (one table per object queried, kept as long as the database), so
        a distribution must not be mutated once it has been queried.

        Raises:
            KeyError: the database holds no records for ``kind``.
        """
        key = (kind, distribution)
        table = self._tables.get(key)
        if table is None:
            envelope = self.envelope_coverage(kind, distribution)
            resistances = self.resistances(kind)
            rows = []
            for condition in self.conditions(kind):
                fc = tuple((r, self.coverage(kind, condition, r))
                           for r in resistances)
                dc = self.weighted_coverage(kind, condition, distribution)
                rows.append(CoverageRow(
                    condition, fc, dc,
                    dc / envelope if envelope > 0 else 1.0))
            table = self._tables[key] = tuple(rows)
        return table

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str | Path,
             fault_hook: Callable[[str], None] | None = None) -> None:
        """Durably persist the database.

        Crash-safe: the JSON is written to a sibling temp file, fsynced
        and atomically renamed over the destination
        (:func:`repro.runner.atomic.atomic_write_text`), so a crash
        mid-save can never leave a truncated database behind.  The
        payload carries a schema version and a SHA-256 checksum that
        :meth:`load` verifies.

        Args:
            path: Destination file.
            fault_hook: Chaos probe threaded into the atomic write
                (see :mod:`repro.runner.chaos`).
        """
        rows = [
            {
                "kind": r.kind,
                "resistance": r.resistance,
                "condition": r.condition,
                "vdd": r.vdd,
                "period": r.period,
                "detected": r.detected,
                "total": r.total,
                "errors": r.errors,
            }
            for r in self._records
        ]
        envelope = wrap_envelope(DB_SCHEMA, DB_VERSION, {"records": rows})
        atomic_write_text(path, json.dumps(envelope, indent=1,
                                           sort_keys=True),
                          fault_hook=fault_hook)

    #: Keys every persisted record row must carry (``errors`` is
    #: optional for databases written before the resilient runner).
    _REQUIRED_ROW_KEYS = ("kind", "resistance", "condition", "vdd",
                          "period", "detected", "total")

    @classmethod
    def _records_from_rows(cls, path: Path,
                           rows: Any) -> list[CoverageRecord]:
        if not isinstance(rows, list):
            raise DatabaseCorruptError(
                path, f"expected a list of record rows, "
                      f"got {type(rows).__name__}")
        records: list[CoverageRecord] = []
        for i, row in enumerate(rows):
            if not isinstance(row, dict):
                raise DatabaseCorruptError(
                    path, f"record row {i} is {type(row).__name__}, "
                          "not an object")
            missing = [k for k in cls._REQUIRED_ROW_KEYS if k not in row]
            if missing:
                raise DatabaseCorruptError(
                    path, f"record row {i} is missing key(s) "
                          f"{', '.join(repr(k) for k in missing)}")
            try:
                record = CoverageRecord(**row)
            except (TypeError, ValueError) as exc:
                raise DatabaseCorruptError(
                    path, f"record row {i} is malformed: {exc}") from exc
            resistance = record.resistance
            if not (isinstance(resistance, (int, float))
                    and not isinstance(resistance, bool)
                    and resistance > 0.0 and math.isfinite(resistance)):
                raise DatabaseCorruptError(
                    path, f"record row {i} (kind={record.kind!r}, "
                          f"condition={record.condition!r}) has "
                          f"non-positive or non-finite resistance "
                          f"{resistance!r}; log-R interpolation "
                          "requires R > 0")
            records.append(record)
        return records

    @classmethod
    def _parse(cls, path: Path, text: str) -> "CoverageDatabase":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DatabaseCorruptError(
                path, f"invalid/truncated JSON ({exc})") from exc
        if isinstance(payload, list):
            # Legacy pre-envelope format: a bare list of record rows.
            return cls(cls._records_from_rows(path, payload))
        try:
            _, body = unwrap_envelope(payload, DB_SCHEMA, DB_VERSION)
        except EnvelopeError as exc:
            raise DatabaseCorruptError(path, str(exc)) from exc
        if "records" not in body:
            raise DatabaseCorruptError(
                path, "body is missing the 'records' key")
        return cls(cls._records_from_rows(path, body["records"]))

    @classmethod
    def load(cls, path: str | Path) -> "CoverageDatabase":
        """Load and validate a persisted database.

        Accepts both the checksummed envelope written by :meth:`save`
        and the legacy bare-list format.  When the destination is
        missing or corrupt but an intact ``.tmp`` sibling survives (a
        crash between write and rename), the temp file is recovered
        instead.

        Args:
            path: Database file location.

        Raises:
            FileNotFoundError: neither the file nor a recoverable temp
                sibling exists.
            DatabaseCorruptError: the file fails JSON parsing, checksum
                or row validation (the message names path and defect).
                When both the file and its temp sibling are corrupt,
                the main file's error is raised and the sibling's is
                attached as its ``__cause__``.
        """
        path = Path(path)
        main_error: DatabaseCorruptError | None = None
        if path.exists():
            try:
                return cls._parse(path, path.read_text())
            except DatabaseCorruptError as exc:
                main_error = exc
        tmp = temp_path_for(path)
        tmp_error: DatabaseCorruptError | None = None
        if tmp.exists():
            try:
                return cls._parse(tmp, tmp.read_text())
            except DatabaseCorruptError as exc:
                tmp_error = exc
        if main_error is not None:
            raise main_error from tmp_error
        if tmp_error is not None:
            # The destination never existed and its only candidate is
            # corrupt: that is a corruption story, not a missing-file
            # one, so surface the real defect.
            raise tmp_error
        raise FileNotFoundError(
            f"no coverage database at {path} "
            f"(and no recoverable {tmp.name})")


def default_database_path() -> Path:
    """Path of the pre-calculated database shipped with the package."""
    return Path(__file__).resolve().parent.parent / "data" / \
        "cmos018_coverage.json"


def load_default_database() -> CoverageDatabase:
    """The pre-calculated CMOS 0.18 um database shipped with the package.

    Built once by a 6000-site IFA campaign over the Veqtor4 geometry
    (``scripts/build_database.py``); this is the deployment model the
    paper describes -- "we relieve the users from the burden of running
    a time consuming IFA analysis".
    """
    return CoverageDatabase.load(default_database_path())
