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
* :mod:`repro.runner.campaign` -- the :class:`CampaignRunner`
  orchestrating all of it (quarantine ledger, graceful degradation,
  grid evaluator from :mod:`repro.perf`).

See ``docs/robustness.md`` for the architecture tour and
``docs/performance.md`` for the grid evaluator.
"""

from repro.runner.atomic import (
    EnvelopeError,
    atomic_write_envelope,
    atomic_write_text,
    body_checksum,
    temp_path_for,
    unwrap_envelope,
    wrap_envelope,
)
from repro.runner.campaign import (
    CampaignResult,
    CampaignRunner,
    SweepSpec,
)
from repro.runner.evaluate import (
    UnitDeadlineExceeded,
    UnitEvaluator,
    UnitOutcome,
)
from repro.runner.chaos import (
    ChaosBehaviorModel,
    FaultInjector,
    InjectedCrash,
    InjectedFault,
)
from repro.runner.checkpoint import (
    CampaignCheckpoint,
    CheckpointCorruptError,
    CheckpointMismatchError,
)
from repro.runner.retry import (
    DEFAULT_UNIT_POLICY,
    RetryExhaustedError,
    RetryPolicy,
    RetryStats,
    run_with_retry,
)
from repro.runner.units import WorkUnit, plan_units

__all__ = [
    "EnvelopeError",
    "atomic_write_envelope",
    "atomic_write_text",
    "body_checksum",
    "temp_path_for",
    "unwrap_envelope",
    "wrap_envelope",
    "CampaignResult",
    "CampaignRunner",
    "SweepSpec",
    "UnitDeadlineExceeded",
    "UnitEvaluator",
    "UnitOutcome",
    "ChaosBehaviorModel",
    "FaultInjector",
    "InjectedCrash",
    "InjectedFault",
    "CampaignCheckpoint",
    "CheckpointCorruptError",
    "CheckpointMismatchError",
    "DEFAULT_UNIT_POLICY",
    "RetryExhaustedError",
    "RetryPolicy",
    "RetryStats",
    "run_with_retry",
    "WorkUnit",
    "plan_units",
]
