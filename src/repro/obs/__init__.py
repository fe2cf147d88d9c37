"""Observability for campaign runs: events, metrics and reports.

``repro.obs`` gives every execution layer (runner, grid evaluator,
lot pool, shmoo, database, service) one way to leave a machine-readable
account of what happened and why:

* :mod:`repro.obs.events` -- the stable event vocabulary and JSONL
  run-journal schema;
* :mod:`repro.obs.bus` -- the buffered, atomically-flushed
  :class:`EventBus` plus journal readers;
* :mod:`repro.obs.metrics` -- counters / gauges / monotonic timers;
* :mod:`repro.obs.report` -- journal -> run-report folding and
  text/JSON rendering (the ``repro report`` CLI).

Journals are deterministic by contract: payloads carry no wall-clock
reads or execution knobs, so serial and multi-worker runs of the same
lot write byte-identical journals, and with no journal requested the
runners make zero event-bus invocations.
"""

from repro.obs.bus import EventBus, read_journal, read_journal_text
from repro.obs.events import (
    EVENT_CATALOG,
    JOURNAL_SCHEMA,
    JOURNAL_VERSION,
    JournalError,
    ObsEvent,
    validate_event,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import (
    REPORT_SCHEMA,
    REPORT_VERSION,
    build_report,
    render_json,
    render_text,
)

__all__ = [
    "EVENT_CATALOG",
    "EventBus",
    "JOURNAL_SCHEMA",
    "JOURNAL_VERSION",
    "JournalError",
    "MetricsRegistry",
    "ObsEvent",
    "REPORT_SCHEMA",
    "REPORT_VERSION",
    "build_report",
    "read_journal",
    "read_journal_text",
    "render_json",
    "render_text",
    "validate_event",
]
