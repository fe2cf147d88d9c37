"""Crash-safe campaign checkpoints: survive kills, resume exactly.

The checkpoint is the runner's source of durability: after every
completed work unit the runner appends the unit's result and rewrites
the checkpoint file through :func:`repro.runner.atomic.
atomic_write_text` (write-temp, fsync, rename).  Killing the process at
*any* instant therefore leaves either the previous or the new
checkpoint on disk, both complete and checksummed -- never a torn file.

File format (JSON)::

    {
      "schema":   "repro.campaign-checkpoint",
      "version":  1,
      "checksum": "<sha256 of canonicalised body>",
      "body": {
        "meta":       {...campaign fingerprint: geometry, seed, sweep...},
        "completed":  {"<unit_id>": {...CoverageRecord payload...}},
        "quarantine": [{...error-ledger entry...}]
      }
    }

Corruption handling on load, in order:

1. destination parses and validates -> use it;
2. destination missing/corrupt but the ``.tmp`` sibling validates
   (crash between fsync and rename) -> recover from the temp file;
3. otherwise -> :class:`CheckpointCorruptError` naming the path and the
   specific defect (truncated JSON, checksum mismatch, missing key...).

:class:`CheckpointedRun` is the run loop of both the campaign and the
streaming lot.  When a run journal is enabled (:mod:`repro.obs`), it
mirrors this lifecycle as ``checkpoint.save`` / ``checkpoint.resume``
events -- including the temp-file recovery case, which ``status()``
reports as ``recovered_from_temp``.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterator, Sequence
from pathlib import Path
from typing import Any

from repro.runner.atomic import (
    EnvelopeError,
    FaultHook,
    atomic_write_text,
    temp_path_for,
    unwrap_envelope,
    wrap_envelope,
)

SCHEMA = "repro.campaign-checkpoint"
VERSION = 1


class CheckpointCorruptError(RuntimeError):
    """A checkpoint file exists but cannot be trusted.

    Attributes:
        path: The offending file.
        defect: What exactly is wrong with it.
    """

    def __init__(self, path: str | Path, defect: str) -> None:
        self.path = Path(path)
        self.defect = defect
        super().__init__(f"checkpoint {self.path}: {defect}")


class CheckpointMismatchError(RuntimeError):
    """A checkpoint's campaign fingerprint disagrees with the caller's."""


class CampaignCheckpoint:
    """In-memory image of a campaign's durable progress.

    Args:
        meta: Campaign fingerprint -- everything needed to (a) refuse a
            resume against a different campaign and (b) rebuild the
            campaign from the file alone (geometry, seed, n_sites,
            sweep grids, condition set...).  Must be JSON-serialisable.
    """

    def __init__(self, meta: dict[str, Any]) -> None:
        self.meta = dict(meta)
        self.completed: dict[str, dict[str, Any]] = {}
        self.quarantine: list[dict[str, Any]] = []
        #: True when :meth:`load` fell back to the ``.tmp`` sibling.
        self.recovered_from_temp = False

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def record_unit(self, unit_id: str, payload: dict[str, Any],
                    quarantine: list[dict[str, Any]] | None = None) -> None:
        """Mark one work unit complete (with its result payload)."""
        self.completed[unit_id] = dict(payload)
        if quarantine:
            self.quarantine.extend(dict(q) for q in quarantine)

    def is_complete(self, unit_id: str) -> bool:
        """True when the unit's result is already checkpointed."""
        return unit_id in self.completed

    def result_for(self, unit_id: str) -> dict[str, Any]:
        """The stored record payload of a completed unit (KeyError else)."""
        return self.completed[unit_id]

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def _body(self) -> dict[str, Any]:
        return {
            "meta": self.meta,
            "completed": self.completed,
            "quarantine": self.quarantine,
        }

    def save(self, path: str | Path,
             fault_hook: FaultHook | None = None) -> None:
        """Durably write the checkpoint (atomic replace + checksum)."""
        envelope = wrap_envelope(SCHEMA, VERSION, self._body())
        atomic_write_text(path, json.dumps(envelope, indent=1,
                                           sort_keys=True),
                          fault_hook=fault_hook)

    @classmethod
    def _parse(cls, path: Path, text: str) -> "CampaignCheckpoint":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckpointCorruptError(
                path, f"invalid/truncated JSON ({exc})") from exc
        try:
            _, body = unwrap_envelope(payload, SCHEMA, VERSION)
        except EnvelopeError as exc:
            raise CheckpointCorruptError(path, str(exc)) from exc
        for key in ("meta", "completed", "quarantine"):
            if key not in body:
                raise CheckpointCorruptError(
                    path, f"body is missing the {key!r} key")
        ckpt = cls(body["meta"])
        ckpt.completed = dict(body["completed"])
        ckpt.quarantine = list(body["quarantine"])
        return ckpt

    @classmethod
    def load(cls, path: str | Path) -> "CampaignCheckpoint":
        """Load and validate; fall back to the temp file when possible.

        Raises:
            FileNotFoundError: neither the checkpoint nor a recoverable
                temp sibling exists.
            CheckpointCorruptError: a file exists but fails validation
                (and the temp sibling cannot rescue it).
        """
        path = Path(path)
        main_error: CheckpointCorruptError | None = None
        if path.exists():
            try:
                return cls._parse(path, path.read_text())
            except CheckpointCorruptError as exc:
                main_error = exc
        tmp = temp_path_for(path)
        if tmp.exists():
            try:
                ckpt = cls._parse(tmp, tmp.read_text())
            except CheckpointCorruptError:
                ckpt = None
            if ckpt is not None:
                ckpt.recovered_from_temp = True
                return ckpt
        if main_error is not None:
            raise main_error
        raise FileNotFoundError(
            f"no checkpoint at {path} (and no recoverable {tmp.name})")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def ensure_matches(self, meta: dict[str, Any]) -> None:
        """Refuse to resume a different campaign's checkpoint."""
        mismatched = sorted(
            k for k in set(self.meta) | set(meta)
            if self.meta.get(k) != meta.get(k))
        if mismatched:
            raise CheckpointMismatchError(
                "checkpoint belongs to a different campaign; "
                f"mismatched keys: {', '.join(mismatched)}")

    def status(self, total_units: int | None = None) -> dict[str, Any]:
        """Summary for ``repro campaign status`` and progress logs."""
        out: dict[str, Any] = {
            "completed_units": len(self.completed),
            "quarantined_sites": len(self.quarantine),
            "recovered_from_temp": self.recovered_from_temp,
            "meta": dict(self.meta),
        }
        if total_units is not None:
            out["total_units"] = total_units
            out["remaining_units"] = total_units - len(self.completed)
        return out


class CheckpointedRun:
    """One resumable pass over a unit plan: replay, execute, checkpoint.

    Construction loads the checkpoint (refusing one whose fingerprint
    differs from ``meta``) or starts a new one, and opens the journal:
    ``bus`` and ``metrics`` stay ``None`` without one, and the loop
    then makes zero bus calls.  Folding payloads and emitting unit
    events is the caller's business.

    Args:
        meta: Run fingerprint stored in (and matched against) the
            checkpoint.
        checkpoint_path: Progress file; ``None`` runs in memory.
        journal: ``None``, a JSONL path or an event bus.
        fault_hook: Chaos probe threaded into checkpoint writes.
        journal_meta: Journal header metadata (default ``meta``).
    """

    def __init__(self, meta: dict[str, Any],
                 checkpoint_path: Path | None = None,
                 journal: Any = None,
                 fault_hook: FaultHook | None = None,
                 journal_meta: dict[str, Any] | None = None) -> None:
        self.checkpoint_path = checkpoint_path
        self.fault_hook = fault_hook
        self.resuming = (checkpoint_path is not None
                         and checkpoint_path.exists())
        if self.resuming:
            self.checkpoint = CampaignCheckpoint.load(checkpoint_path)
            self.checkpoint.ensure_matches(meta)
        else:
            self.checkpoint = CampaignCheckpoint(meta)
        if isinstance(journal, (str, Path)):
            from repro.obs.bus import EventBus

            journal = EventBus(Path(journal))
        self.bus = journal
        self.metrics: Any = None
        if journal is not None:
            from repro.obs.metrics import MetricsRegistry

            self.metrics = MetricsRegistry()
            self.bus.set_meta(meta if journal_meta is None
                              else journal_meta)
        self.executed_units = 0
        self.resumed_units = 0

    def run(self, units: Sequence[Any],
            outcomes: Callable[[list[Any]], Iterator[Any]],
            replay: Callable[[Any, dict[str, Any]], None],
            execute: Callable[[Any, Any], dict[str, Any]]) -> None:
        """Replay or execute every unit of ``units``, in plan order.

        Every executed unit is recorded and saved (with a journal:
        then a ``checkpoint.save`` event and a flush) before the next.

        Args:
            units: The plan (objects with a ``unit_id``).
            outcomes: Builds the lazy stream of the pending units'
                :class:`~repro.runner.outcome.UnitOutcome` objects.
            replay: Folds a checkpointed unit's stored payload.
            execute: Folds an executed unit's outcome and returns the
                payload to checkpoint for it.
        """
        ckpt, bus = self.checkpoint, self.bus
        if bus is not None:
            bus.emit("run.start", plan_units=len(units))
            if self.resuming:
                bus.emit("checkpoint.resume",
                         completed_units=len(ckpt.completed),
                         recovered_from_temp=ckpt.recovered_from_temp)
        stream = outcomes([u for u in units
                           if not ckpt.is_complete(u.unit_id)])
        for processed, unit in enumerate(units, 1):
            if ckpt.is_complete(unit.unit_id):
                self.resumed_units += 1
                replay(unit, ckpt.result_for(unit.unit_id))
                continue
            outcome = next(stream)
            self.executed_units += 1
            ckpt.record_unit(unit.unit_id, execute(unit, outcome),
                             outcome.quarantine)
            if self.checkpoint_path is None:
                continue
            ckpt.save(self.checkpoint_path, fault_hook=self.fault_hook)
            if bus is not None:
                bus.emit("checkpoint.save", completed_units=processed)
                self.metrics.inc("checkpoint.saves")
                bus.flush()

    def finish(self) -> dict[str, Any] | None:
        """Emit ``run.done`` and flush; the metrics snapshot (or None)."""
        if self.bus is None:
            return None
        self.bus.emit("run.done", executed_units=self.executed_units,
                      resumed_units=self.resumed_units,
                      quarantined_sites=len(self.checkpoint.quarantine))
        snapshot = self.metrics.snapshot()
        self.bus.flush()
        return snapshot
