"""Content-addressed evaluation cache: never simulate the same point twice.

The paper's deployment model ships a database of pre-calculated
simulation results precisely because one-defect-at-a-time analogue
simulation is too slow to run on demand (Section 3).  This module is
the library's incremental version of that idea: every completed
(population, behaviour model, R, condition) work unit is stored under a
content-addressed key, and any later sweep that evaluates the same
point -- an estimator refresh, an ablation benchmark, a resumed or
re-parameterised campaign -- gets the stored row back instead of
re-simulating.

Key design (see :mod:`repro.perf.fingerprint` and
``docs/performance.md``):

* the key is the SHA-256 digest of a canonical JSON document combining
  the behaviour-model fingerprint, the population fingerprint, the
  sweep resistance and the stress condition;
* *invalidation is implicit*: changing any calibration constant,
  geometry, seed or population size changes the key, so stale rows are
  simply never addressed again -- there is no flush protocol to get
  wrong;
* only **clean** units (``errors == 0``) are cached; a quarantined
  evaluation might succeed next time and must be allowed to.

On disk the cache reuses the runner's durable-artefact machinery
(:mod:`repro.runner.atomic`): atomic write-temp/fsync/rename plus a
versioned, SHA-256-checksummed envelope.  Because a cache is
*disposable* (every entry can be recomputed), corruption is handled
more leniently than for checkpoints: a corrupt cache file is discarded
and the campaign proceeds with an empty cache (the ``discarded_corrupt``
flag records that it happened), instead of refusing to run.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

from repro.perf.fingerprint import fingerprint_document
from repro.runner.atomic import (
    EnvelopeError,
    FaultHook,
    atomic_write_envelope,
    canonical_json,
    temp_path_for,
    unwrap_envelope,
)

SCHEMA = "repro.evaluation-cache"
VERSION = 1

#: Schema tag mixed into every cache key so a key-layout change can
#: never collide with keys minted by an older layout.
KEY_SCHEMA = "repro.evaluation-cache-key/1"


def unit_cache_key(behavior_doc: Any, population_doc: Any,
                   resistance: float, condition: Any) -> str:
    """Content-addressed key of one (model, population, R, condition).

    Args:
        behavior_doc: :func:`repro.perf.fingerprint.behavior_fingerprint`
            of the behaviour model.
        population_doc:
            :func:`repro.perf.fingerprint.population_fingerprint` of the
            site population being swept.
        resistance: Sweep-point resistance (ohms).
        condition: The :class:`~repro.stress.StressCondition` evaluated.

    Returns:
        A SHA-256 hex digest; equal inputs map to equal keys and any
        differing input yields a different key.
    """
    doc = {
        "schema": KEY_SCHEMA,
        "behavior": behavior_doc,
        "population": population_doc,
        "resistance": repr(float(resistance)),
        "condition": fingerprint_document(condition, "condition"),
    }
    return hashlib.sha256(
        canonical_json(doc).encode("utf-8")).hexdigest()


class EvaluationCache:
    """In-memory image of the on-disk evaluation cache.

    The cache maps content-addressed keys (:func:`unit_cache_key`) to
    :class:`~repro.ifa.flow.CoverageRecord` payload dicts.  Hit/miss
    counters accumulate over the instance's lifetime and feed the
    benchmark harness's hit-rate figures.

    Attributes:
        entries: Key -> record-payload mapping.
        hits: Number of :meth:`get` calls that found an entry.
        misses: Number of :meth:`get` calls that did not.
        discarded_corrupt: True when :meth:`load` found a cache file it
            could not validate and discarded it (whether it then fell
            back to the ``.tmp`` sibling or started empty).
        corrupt_detail: One ``{"path", "error"}`` entry per discarded
            candidate file, naming the exception that rejected it --
            the forensic record behind ``discarded_corrupt`` (surfaced
            as ``cache.discard_corrupt`` journal events and in
            ``repro campaign status --cache``).
        recovered_from_temp: True when :meth:`load` fell back to the
            ``.tmp`` sibling (crash between fsync and rename).
    """

    def __init__(self) -> None:
        self.entries: dict[str, dict[str, Any]] = {}
        self.hits = 0
        self.misses = 0
        self.discarded_corrupt = False
        self.corrupt_detail: list[dict[str, str]] = []
        self.recovered_from_temp = False
        self._dirty = False

    # ------------------------------------------------------------------
    # Lookup / insertion
    # ------------------------------------------------------------------
    def get(self, key: str) -> dict[str, Any] | None:
        """Return the payload stored under ``key``, counting hit/miss."""
        payload = self.entries.get(key)
        if payload is None:
            self.misses += 1
            return None
        self.hits += 1
        return dict(payload)

    def put(self, key: str, payload: dict[str, Any]) -> None:
        """Store a record payload under ``key`` (marks the cache dirty)."""
        self.entries[key] = dict(payload)
        self._dirty = True

    def __len__(self) -> int:
        """Number of cached entries."""
        return len(self.entries)

    @property
    def dirty(self) -> bool:
        """True when entries were added since the last load/save."""
        return self._dirty

    def stats(self) -> dict[str, Any]:
        """Hit/miss counters plus the derived hit rate.

        Returns:
            A dict with ``entries``, ``hits``, ``misses``, ``hit_rate``
            (0.0 when the cache was never queried),
            ``discarded_corrupt`` and ``corrupt_detail``.
        """
        queries = self.hits + self.misses
        return {
            "entries": len(self.entries),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hits / queries if queries else 0.0,
            "discarded_corrupt": self.discarded_corrupt,
            "corrupt_detail": [dict(d) for d in self.corrupt_detail],
        }

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str | Path,
             fault_hook: FaultHook | None = None) -> None:
        """Durably write the cache (atomic replace + checksum envelope).

        Args:
            path: Destination cache file.
            fault_hook: Optional chaos probe threaded into the atomic
                write (see :mod:`repro.runner.chaos`).
        """
        atomic_write_envelope(path, SCHEMA, VERSION,
                              {"entries": self.entries},
                              fault_hook=fault_hook)
        self._dirty = False

    @classmethod
    def _parse(cls, text: str) -> "EvaluationCache":
        """Parse one candidate cache file body, raising on any defect."""
        payload = json.loads(text)
        _, body = unwrap_envelope(payload, SCHEMA, VERSION)
        entries = body.get("entries")
        if not isinstance(entries, dict):
            raise EnvelopeError("cache body has no 'entries' mapping")
        cache = cls()
        cache.entries = {str(k): dict(v) for k, v in entries.items()}
        return cache

    @classmethod
    def load(cls, path: str | Path) -> "EvaluationCache":
        """Load a cache file, degrading gracefully on every failure.

        Resolution order: the destination file if it validates; else the
        ``.tmp`` sibling (crash between fsync and rename); else an empty
        cache.  A corrupt-but-present file sets ``discarded_corrupt``
        -- with the exception recorded in ``corrupt_detail`` -- instead
        of raising: every cache entry is recomputable, so a bad cache
        must never stop a campaign, but the discard must not be silent
        either.

        Args:
            path: Cache file location (may not exist yet).

        Returns:
            The loaded (possibly empty) cache.
        """
        path = Path(path)
        detail: list[dict[str, str]] = []
        for candidate in (path, temp_path_for(path)):
            if not candidate.exists():
                continue
            try:
                cache = cls._parse(candidate.read_text())
            except (json.JSONDecodeError, EnvelopeError, OSError) as exc:
                detail.append({
                    "path": str(candidate),
                    "error": f"{type(exc).__name__}: {exc}",
                })
                continue
            cache.recovered_from_temp = candidate != path
            cache.discarded_corrupt = bool(detail)
            cache.corrupt_detail = detail
            return cache
        cache = cls()
        cache.discarded_corrupt = bool(detail)
        cache.corrupt_detail = detail
        return cache
