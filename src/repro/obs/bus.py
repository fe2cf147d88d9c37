"""The event bus: buffered, crash-safe JSONL run journals.

One :class:`EventBus` instance collects a run's :class:`~repro.obs.
events.ObsEvent` stream and -- when bound to a path -- persists it as a
JSONL journal through the library's durable-write machinery
(:func:`repro.runner.atomic.atomic_write_text`: write-temp, fsync,
atomic rename).  Readers therefore never observe a torn journal, and a
crash mid-flush costs at most the events since the previous flush --
the campaign runner flushes alongside every checkpoint save, so journal
and checkpoint stay in step.

Process model: exactly one process (the run's parent) writes a
journal.  A lot's pool workers never touch the bus -- their per-shard
snapshots travel back inside
:class:`~repro.runner.evaluate.UnitOutcome` and are replayed into the
bus at the runner's in-order effect point, which is what makes a
pooled lot journal byte-identical to a serial one.

Cost model: when no journal is requested the runner holds no bus at all
and every emission site is skipped behind an ``is not None`` guard --
zero invocations on the hot path, asserted by
``tests/obs/test_campaign_journal.py`` with a counting wrapper
(:class:`repro.perf.counting.CountingEventBus`).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.obs.events import (
    JOURNAL_SCHEMA,
    JOURNAL_VERSION,
    JournalError,
    ObsEvent,
    validate_event,
)
from repro.runner.atomic import atomic_write_text, canonical_json

__all__ = ["EventBus", "read_journal", "read_journal_text"]


class EventBus:
    """Collect structured events; optionally persist them as a journal.

    Args:
        path: Journal destination.  ``None`` keeps the bus in-memory
            (tests, ad-hoc introspection); a path makes :meth:`flush`
            durably rewrite the JSONL file.
        meta: Run metadata recorded in the journal's header line.
            Deliberately restricted by convention to *what the run
            computes* (campaign fingerprint, sweep plan) -- never
            execution knobs like worker counts, so journals stay
            byte-identical across serial/parallel runs.

    Attributes:
        events: Emitted events, in order.
        meta: Header metadata (see :meth:`set_meta`).
    """

    def __init__(self, path: str | Path | None = None,
                 meta: dict[str, Any] | None = None) -> None:
        self.path = Path(path) if path is not None else None
        self.meta: dict[str, Any] = dict(meta or {})
        self.events: list[ObsEvent] = []
        self._seq = 0

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def emit(self, name: str, **data: Any) -> ObsEvent:
        """Record one event (validated against the catalog).

        Args:
            name: Stable event name from
                :data:`~repro.obs.events.EVENT_CATALOG`.
            **data: The event payload.

        Returns:
            The recorded event (sequence number assigned).

        Raises:
            JournalError: unknown name or missing required payload key.
            TypeError: a payload value is not JSON-serialisable (caught
                at emission, not at flush, so the stack trace points at
                the offending call site).
        """
        validate_event(name, data)
        event = ObsEvent(self._seq + 1, name, data)
        event.to_line()
        self._seq += 1
        self.events.append(event)
        return event

    def set_meta(self, meta: dict[str, Any]) -> None:
        """Install header metadata unless some was already provided.

        First writer wins: a caller that constructed the bus with
        explicit metadata keeps it even when the runner later offers
        its campaign fingerprint.
        """
        if not self.meta:
            self.meta = dict(meta)

    def __len__(self) -> int:
        """Number of events emitted so far."""
        return len(self.events)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def render(self) -> str:
        """The full journal text (header line + one line per event)."""
        header = canonical_json({
            "schema": JOURNAL_SCHEMA,
            "version": JOURNAL_VERSION,
            "meta": self.meta,
        })
        lines = [header]
        lines.extend(event.to_line() for event in self.events)
        return "\n".join(lines) + "\n"

    def flush(self) -> None:
        """Durably rewrite the journal file (no-op for in-memory buses).

        Uses the atomic write-temp/fsync/rename helper, so a reader (or
        a crash) can never observe a truncated journal -- at worst a
        stale one.
        """
        if self.path is not None:
            atomic_write_text(self.path, self.render())

    def close(self) -> None:
        """Final flush (alias kept for with-statement style call sites)."""
        self.flush()


def read_journal_text(text: str) -> tuple[dict[str, Any], list[ObsEvent]]:
    """Parse and validate journal text into (header meta, events).

    Raises:
        JournalError: empty text, a broken header, an invalid event
            line (the message names the 1-based line number) or a
            non-increasing sequence number.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise JournalError("journal is empty (missing header line)")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise JournalError(f"line 1: invalid JSON header ({exc})") from exc
    if not isinstance(header, dict):
        raise JournalError("line 1: header is not an object")
    if header.get("schema") != JOURNAL_SCHEMA:
        raise JournalError(
            f"line 1: schema mismatch (expected {JOURNAL_SCHEMA!r}, "
            f"found {header.get('schema')!r})")
    version = header.get("version")
    if not isinstance(version, int) or not 1 <= version <= JOURNAL_VERSION:
        raise JournalError(
            f"line 1: unsupported journal version {version!r} "
            f"(this build reads versions 1..{JOURNAL_VERSION})")
    meta = header.get("meta")
    if not isinstance(meta, dict):
        raise JournalError("line 1: header 'meta' is not an object")
    events: list[ObsEvent] = []
    previous_seq = 0
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            event = ObsEvent.from_line(line)
        except JournalError as exc:
            raise JournalError(f"line {lineno}: {exc}") from exc
        if event.seq <= previous_seq:
            raise JournalError(
                f"line {lineno}: seq {event.seq} is not greater than "
                f"the previous seq {previous_seq}")
        previous_seq = event.seq
        events.append(event)
    return meta, events


def read_journal(path: str | Path) -> tuple[dict[str, Any], list[ObsEvent]]:
    """Load and validate a journal file into (header meta, events).

    Args:
        path: Journal file written by :meth:`EventBus.flush`.

    Raises:
        FileNotFoundError: no such file.
        JournalError: the content fails validation (the message names
            the offending line).
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no run journal at {path}")
    try:
        return read_journal_text(path.read_text())
    except JournalError as exc:
        raise JournalError(f"{path}: {exc}") from exc
