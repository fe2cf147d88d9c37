"""repro.perf -- the campaign execution-performance layer.

Three accelerators for coverage campaigns, all preserving
byte-identical records:

* :mod:`repro.perf.batch` -- the serial grid evaluator: each (kind,
  condition) group's full site x R grid in one vectorised
  ``evaluate_batch`` call, guarded by a seeded cross-check and
  per-site scalar fallback (see ``docs/batch_kernel.md``);
* :mod:`repro.perf.supervisor` -- the supervised process pool
  (worker side in :mod:`repro.perf.executor`) that fans the exact
  per-unit evaluator across cores for ``workers > 1``, healing worker
  death, hangs and poison units instead of aborting the run;
* :mod:`repro.perf.cache` -- a content-addressed evaluation cache
  (keyed by :mod:`repro.perf.fingerprint`) so repeated sweeps skip
  already-simulated points, mirroring the paper's database of
  pre-calculated simulation results.

They plug into :class:`repro.runner.campaign.CampaignRunner` via its
``workers=`` and ``cache=`` arguments.  The one benchmark harness,
:mod:`repro.perf.bench`, measures them -- and the streaming experiment
and the service -- as four suites sharing one document schema, one
validator and one floor table.  See ``docs/performance.md``.

The package root imports nothing: import the submodule you need, so a
serial run never loads the pool's ``multiprocessing`` machinery.
"""
