"""The event vocabulary: stable names, required payloads, a journal schema.

The runner stack executes campaigns that the paper's industrial flow
would surround with diagnosis artefacts -- shmoo plots, bitmaps,
per-condition coverage tables -- yet until this module every
interesting execution fact (a unit resumed from a checkpoint, a
batch-hook site demoted, a retry budget exhausted) was either a bare attribute or
silently dropped.  :mod:`repro.obs` gives those facts one shape:

* an :class:`ObsEvent` is a (sequence number, stable name, JSON payload)
  triple;
* :data:`EVENT_CATALOG` pins the set of stable event names and the
  payload keys each must carry, so journals written today stay
  machine-readable tomorrow;
* a *run journal* is a JSONL file -- one header line naming
  :data:`JOURNAL_SCHEMA`/:data:`JOURNAL_VERSION` plus campaign metadata,
  then one line per event.

Determinism contract (mirrors the PR 4 rules in
``docs/performance.md``): event payloads never contain wall-clock
reads, worker identities or other execution-knob facts.  A journal is a
pure function of *what the run computed*, so a pooled and a serial run
of the same lot write byte-identical journals (asserted by
``tests/experiment/test_streaming.py``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.runner.atomic import canonical_json

__all__ = [
    "EVENT_CATALOG",
    "JOURNAL_SCHEMA",
    "JOURNAL_VERSION",
    "JournalError",
    "ObsEvent",
    "validate_event",
]

#: Identity of the JSONL run-journal format (header line ``schema``).
JOURNAL_SCHEMA = "repro.run-journal"

#: Version of the journal format this build reads and writes.
JOURNAL_VERSION = 1

#: Stable event names -> payload keys every emission must carry.
#: Names are part of the journal schema: renaming one is a
#: ``JOURNAL_VERSION`` bump.  Payloads may carry *extra* keys freely.
EVENT_CATALOG: dict[str, tuple[str, ...]] = {
    # Campaign lifecycle -------------------------------------------------
    "run.start": ("plan_units",),
    "run.done": ("executed_units", "resumed_units", "quarantined_sites"),
    # Work units (emitted in plan order at the in-order effect point) ---
    "unit.start": ("unit", "kind", "resistance", "condition"),
    "unit.resumed": ("unit",),
    "unit.retry": ("unit", "error"),
    "unit.quarantine": ("unit", "site_index", "attempts", "error"),
    "unit.done": ("unit", "source", "detected", "total", "errors"),
    # Checkpoints --------------------------------------------------------
    "checkpoint.save": ("completed_units",),
    "checkpoint.resume": ("completed_units", "recovered_from_temp"),
    # Pool supervision (parent-side; absent from undisturbed runs) ------
    "pool.worker_lost": ("unit", "units", "cause"),
    "pool.rebuild": ("rebuilds", "budget"),
    "pool.redispatch": ("unit", "units", "attempt"),
    "pool.poison_unit": ("unit", "attempts", "error"),
    "pool.degrade_serial": ("units", "rebuilds"),
    # Grid evaluator (only when a batch hook lies or fails) ------------
    "batch.demote": ("kind", "condition", "site_index", "reason",
                     "stage"),
    # Coverage database --------------------------------------------------
    "database.discard_corrupt_tmp": ("path", "error"),
    # Estimator service (single-process; see docs/service.md) -----------
    "service.request": ("method", "path", "status", "queries", "cached"),
    "service.cache_hit": ("key",),
    "service.reload": ("outcome", "etag"),
    "service.reject": ("reason",),
    # Shmoo runner -------------------------------------------------------
    "shmoo.start": ("voltages", "periods"),
    "shmoo.row": ("row", "vdd", "first_pass"),
    "shmoo.fallback": (),
    "shmoo.done": ("tester_invocations",),
    # Streaming sharded experiment (parent-side, in shard-plan order) ---
    "experiment.shard": ("shard", "devices", "defective", "interesting",
                         "source"),
    "experiment.merge": ("shards", "devices", "defective", "interesting",
                         "standard_fails"),
}


class JournalError(ValueError):
    """A run journal (or a single event) failed schema validation.

    The message names the specific defect -- an unknown event name, a
    missing payload key, a broken header -- and, when raised while
    reading a file, the offending line number.
    """


def validate_event(name: str, data: dict[str, Any]) -> None:
    """Check an event against the catalog before it is recorded.

    Args:
        name: Candidate event name.
        data: Candidate payload.

    Raises:
        JournalError: unknown name, or a required payload key is
            absent.  Extra keys are allowed -- the catalog pins a
            floor, not a ceiling.
    """
    required = EVENT_CATALOG.get(name)
    if required is None:
        raise JournalError(
            f"unknown event name {name!r}; stable names: "
            f"{', '.join(sorted(EVENT_CATALOG))}")
    missing = [k for k in required if k not in data]
    if missing:
        raise JournalError(
            f"event {name!r} is missing required payload key(s) "
            f"{', '.join(repr(k) for k in missing)}")


@dataclass(frozen=True)
class ObsEvent:
    """One structured observation: what happened, in order.

    Attributes:
        seq: 1-based position in the run journal (assigned by the
            emitting :class:`~repro.obs.bus.EventBus`; strictly
            increasing within a journal).
        name: Stable event name from :data:`EVENT_CATALOG`.
        data: JSON-serialisable payload.  Never contains wall-clock
            timestamps (see the module docstring's determinism
            contract).
    """

    seq: int
    name: str
    data: dict[str, Any] = field(default_factory=dict)

    def to_line(self) -> str:
        """The event as one canonical JSONL journal line."""
        return canonical_json(
            {"seq": self.seq, "event": self.name, "data": self.data})

    @classmethod
    def from_line(cls, line: str) -> "ObsEvent":
        """Parse one journal line back into an event.

        Raises:
            JournalError: unparsable JSON, wrong shape, an unknown
                event name or a missing required payload key.
        """
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            raise JournalError(f"invalid JSON event line ({exc})") from exc
        if not isinstance(doc, dict):
            raise JournalError(
                f"event line is {type(doc).__name__}, not an object")
        for key in ("seq", "event", "data"):
            if key not in doc:
                raise JournalError(
                    f"event line is missing the {key!r} key")
        if not isinstance(doc["seq"], int) or doc["seq"] < 1:
            raise JournalError(
                f"event seq must be a positive int, got {doc['seq']!r}")
        if not isinstance(doc["data"], dict):
            raise JournalError(
                f"event data must be an object, "
                f"got {type(doc['data']).__name__}")
        validate_event(doc["event"], doc["data"])
        return cls(doc["seq"], doc["event"], doc["data"])
