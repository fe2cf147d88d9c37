"""repro.service -- the estimator as an async HTTP/JSON service.

The paper's deployment model is one expensive IFA campaign amortised
across every later query: "using a database with precalculated
simulation results makes the fault coverage estimation an easy job"
(Section 3).  This package is that model productised for heavy read
traffic: an asyncio stdlib HTTP server in front of
:class:`~repro.core.estimator.FaultCoverageEstimator` /
:class:`~repro.core.database.CoverageDatabase`, with

* **batch queries** -- many (geometry, kind, condition-set) estimates
  per ``POST /v1/estimate``, validated against a typed request schema
  with named 400-level error codes (:mod:`repro.service.schema`);
* a **content-addressed LRU response cache** keyed by (database
  checksum, canonical request body), so swapping the
  database implicitly invalidates every cached response
  (:mod:`repro.service.cache`);
* **hot reload** -- ``POST /v1/reload`` atomically swaps in a freshly
  loaded database snapshot; in-flight requests finish on the snapshot
  they started with, and a corrupt candidate is rejected via
  :class:`~repro.core.database.DatabaseCorruptError` without downtime
  (:mod:`repro.service.state`);
* **observability** -- ``service.request`` / ``service.cache_hit`` /
  ``service.reload`` journal events, metrics counters, and a
  ``repro report`` section (:mod:`repro.obs`).

Front doors: ``python -m repro serve`` (see :mod:`repro.cli`) and the
load-generator benchmark ``benchmarks/perf/bench.py service``
(``BENCH_service.json``, suite :mod:`repro.perf.service_bench`).  Protocol reference: ``docs/service.md``.
"""
