"""Versioned database snapshots and the atomic hot-reload swap.

A :class:`DatabaseSnapshot` is one immutable generation of the serving
state: the loaded :class:`~repro.core.database.CoverageDatabase`, the
:class:`~repro.core.estimator.FaultCoverageEstimator` built over it,
the snapshot's identity -- the :func:`repro.runner.atomic.
body_checksum` of its records, doubling as the HTTP ``ETag`` and as
the database half of every response-cache key -- and, per defect kind,
the pre-rendered response text of its coverage table
(:class:`~repro.service.schema.EstimateFragments`), built on the kind's
first query and kept for the snapshot's lifetime.

:class:`ServiceState` owns the *current* snapshot reference.  Hot
reload is a load-validate-swap sequence: the candidate file goes
through the full :meth:`CoverageDatabase.load` validation (checksummed
envelope, per-row schema, the positive-resistance guard) *before* the
swap, so a corrupt candidate is rejected with the old snapshot still
serving -- no downtime, no half-loaded state.  The swap itself is one
attribute assignment (atomic under the interpreter); request handlers
capture the snapshot reference once at entry and finish on it even if
a reload lands mid-request.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.core.database import CoverageDatabase, DatabaseCorruptError
from repro.core.estimator import FaultCoverageEstimator
from repro.runner.atomic import body_checksum
from repro.service.schema import EstimateFragments

__all__ = ["DatabaseSnapshot", "ReloadResult", "ServiceState"]


@dataclass(frozen=True)
class DatabaseSnapshot:
    """One immutable generation of the serving state.

    Attributes:
        database: The loaded coverage database.
        estimator: The estimator wrapping it (default fab
            distributions and defect density, as in the paper's tool).
        etag: Checksum of the database's records -- the snapshot's
            content identity.
        generation: 1-based swap counter (diagnostic only; identity is
            ``etag``).
    """

    database: CoverageDatabase
    estimator: FaultCoverageEstimator
    etag: str
    generation: int
    _fragments: dict[str, EstimateFragments] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def from_database(cls, database: CoverageDatabase,
                      generation: int = 1) -> "DatabaseSnapshot":
        """Wrap an already-loaded database into a snapshot."""
        return cls(
            database=database,
            estimator=FaultCoverageEstimator(database),
            etag=body_checksum([asdict(r) for r in database.records]),
            generation=generation,
        )

    def fragments(self, kind: str) -> EstimateFragments:
        """``kind``'s response fragments, rendered on its first query.

        Raises:
            KeyError: the database holds no records for ``kind``
                (:meth:`FaultCoverageEstimator.table`'s message).
        """
        fragments = self._fragments.get(kind)
        if fragments is None:
            fragments = self._fragments[kind] = EstimateFragments.build(
                kind, self.estimator.table(kind))
        return fragments

    @classmethod
    def load(cls, path: str | Path,
             generation: int = 1) -> "DatabaseSnapshot":
        """Load and checksum a database file into a snapshot.

        Raises:
            FileNotFoundError: no database at ``path``.
            DatabaseCorruptError: the file fails validation.
        """
        return cls.from_database(CoverageDatabase.load(path), generation)


@dataclass(frozen=True)
class ReloadResult:
    """Outcome of one reload attempt.

    Attributes:
        outcome: ``"reloaded"`` (new snapshot swapped in),
            ``"unchanged"`` (candidate has the same checksum; no
            swap) or ``"rejected"`` (candidate missing/corrupt; old
            snapshot retained).
        etag: The *serving* snapshot's etag after the attempt.
        error: The rejection reason (``None`` unless rejected).
    """

    outcome: str
    etag: str
    error: str | None = None


class ServiceState:
    """The mutable cell holding the current snapshot.

    Args:
        snapshot: The initial generation.
        path: File the reload endpoint re-reads.  ``None`` disables
            reloading (e.g. serving an in-memory database).

    Attributes:
        snapshot: The current generation.  Handlers must read this
            exactly once per request and use the captured reference
            throughout.
        path: The reload source.
    """

    def __init__(self, snapshot: DatabaseSnapshot,
                 path: str | Path | None = None) -> None:
        self.snapshot = snapshot
        self.path = Path(path) if path is not None else None

    def reload(self) -> ReloadResult:
        """Validate the candidate file and atomically swap it in.

        The old snapshot serves until (and unless) the candidate
        passes every load-time check; in-flight requests keep their
        captured reference either way.

        Returns:
            A :class:`ReloadResult`; never raises for a bad candidate
            (rejection is an expected operational outcome, reported in
            ``error``).
        """
        current = self.snapshot
        if self.path is None:
            return ReloadResult("rejected", current.etag,
                                "service has no reloadable database path")
        try:
            candidate = DatabaseSnapshot.load(
                self.path, generation=current.generation + 1)
        except (FileNotFoundError, DatabaseCorruptError) as exc:
            return ReloadResult("rejected", current.etag, str(exc))
        if candidate.etag == current.etag:
            return ReloadResult("unchanged", current.etag)
        self.snapshot = candidate
        return ReloadResult("reloaded", candidate.etag)
