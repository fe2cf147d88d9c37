"""Observability for campaign runs: events, metrics and reports.

``repro.obs`` gives every execution layer (runner, grid evaluator,
lot pool, shmoo, database, service) one way to leave a machine-readable
account of what happened and why:

* :mod:`repro.obs.events` -- the stable event vocabulary and JSONL
  run-journal schema;
* :mod:`repro.obs.bus` -- the buffered, atomically-flushed
  :class:`~repro.obs.bus.EventBus` plus journal readers;
* :mod:`repro.obs.metrics` -- counters / gauges / monotonic timers;
* :mod:`repro.obs.report` -- journal -> run-report folding and
  text/JSON rendering (the ``repro report`` CLI).

Journals are deterministic by contract: payloads carry no wall-clock
reads or execution knobs, so serial and multi-worker runs of the same
lot write byte-identical journals, and with no journal requested the
runners make zero event-bus invocations.
"""
