"""repro.runner -- resilient campaign execution.

The subsystem that makes long coverage campaigns interruptible,
resumable and failure-tolerant:

* :mod:`repro.runner.atomic` -- crash-safe writes (write-temp, fsync,
  atomic rename) and versioned/checksummed JSON envelopes;
* :mod:`repro.runner.units` -- deterministic (kind, R, condition)
  work-unit decomposition of a sweep;
* :mod:`repro.runner.retry` -- exponential backoff with deterministic
  jitter, per-call deadlines, exhaustive failure history;
* :mod:`repro.runner.checkpoint` -- durable campaign progress with
  temp-file recovery and fingerprint matching;
* :mod:`repro.runner.chaos` -- seeded fault injection exercising every
  recovery path above;
* :mod:`repro.runner.evaluate` -- the per-unit evaluation core: the
  grid evaluator's fallback body and the per-site oracle;
* :mod:`repro.runner.campaign` -- the
  :class:`~repro.runner.campaign.CampaignRunner` orchestrating all of it (quarantine ledger, graceful degradation,
  grid evaluator from :mod:`repro.perf`).

See ``docs/robustness.md`` for the architecture tour and
``docs/performance.md`` for the grid evaluator.
"""
