"""repro.perf -- the execution-performance layer.

Two accelerators, both preserving byte-identical results:

* :mod:`repro.perf.batch` -- the campaign's grid evaluator: each (kind,
  condition) group's full site x R grid in one call of the required
  ``evaluate_batch`` kernel, guarded by a seeded cross-check that
  demotes a lying site to the per-site path (see
  ``docs/batch_kernel.md``);
* :mod:`repro.perf.supervisor` -- the supervised process pool
  (worker side in :mod:`repro.perf.executor`) that fans the streaming
  lot's shards across cores for ``workers > 1``, healing worker death,
  hangs and poison shards instead of aborting the run.

Campaigns are serial: :class:`repro.runner.campaign.CampaignRunner`
always runs the grid evaluator, and the paper's database of
pre-calculated simulation results is the coverage database it writes
(:mod:`repro.core.database`).  The lot takes the pool through
:class:`repro.experiment.streaming.StreamingRunner`'s ``workers=``.
The one benchmark harness,
:mod:`repro.perf.bench`, measures them -- and the streaming experiment
and the service -- as three suites sharing one document schema, one
validator and one floor table.  See ``docs/performance.md``.

The package root imports nothing: import the submodule you need, so a
serial run never loads the pool's ``multiprocessing`` machinery.
"""
