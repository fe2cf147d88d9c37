"""One benchmark harness: three suites, one document schema, one validator.

Every component benchmark of this library writes the same document,
``BENCH_<suite>.json``::

    {"schema":   "repro.bench/1",
     "suite":    "fastpath" | "experiment" | "service",
     "config":   the suite's config fields plus the host's cpu_count,
     "rows":     the suite's measurements,
     "headline": {metric: number},   projected from rows
     "checks":   {flag: true}}       projected from rows

:data:`SUITES` names each suite's config class, its run function and
the headline metrics and check flags it must report; :data:`FLOORS`
holds every numeric bound; :func:`validate` is the one validator.  A
run verifies its equivalence contracts before it reports any number and
raises ``RuntimeError`` on divergence, so a ``false`` check only ever
appears in a stale or hand-edited document -- which :func:`validate`
rejects, as it rejects a document that leaves a check or metric out.

The suites:

* ``fastpath`` (:mod:`repro.perf.fastpath_bench`) -- the grid evaluator
  vs the exact per-site evaluator on the Table-1 sweep, the
  boundary-traced vs the exact shmoo, the sort-and-sweep vs the
  pairwise-scan critical-area pair search, and the test plan's defect
  draw from cached CDFs vs the per-defect ``choice(p=...)`` oracle;
* ``experiment`` (:mod:`repro.perf.experiment_bench`) -- the streaming
  million-device lot: throughput, memory, the legacy/shard identity
  oracles, and the serial-vs-pool speedup of a 10^7-device lot (the
  supervised pool, :mod:`repro.perf.supervisor`, one worker per
  visible CPU) with its worker-count identity check;
* ``service`` (:mod:`repro.perf.service_bench`) -- ``repro serve`` over
  a live loopback socket: cold and warm latency, cache hits, byte
  identity with the in-process estimator.

Every suite times real computation on the host; the config records its
``cpu_count``.  Entry point: ``benchmarks/perf/bench.py``; field guide:
``docs/performance.md``.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from dataclasses import asdict, dataclass
from typing import Any

from repro.perf.experiment_bench import ExperimentBenchConfig, run_experiment
from repro.perf.fastpath_bench import FastpathBenchConfig, run_fastpath
from repro.perf.service_bench import ServiceBenchConfig, run_service

#: Schema tag of every emitted BENCH_<suite>.json document.
SCHEMA = "repro.bench/1"


@dataclass(frozen=True)
class Suite:
    """One benchmark suite: what it runs and what it must report.

    Attributes:
        config: Frozen config dataclass; ``config()`` is the shape of
            the committed artefact, ``config.quick()`` the CI-smoke
            shape.
        run: Measures one config and returns the document's ``rows``.
            Raises ``RuntimeError`` when an equivalence contract
            breaks.
        headline: Headline metric -> dotted path of its number in
            ``rows``.
        checks: Check flag -> dotted path of its boolean in ``rows``.
    """

    config: Any
    run: Callable[[Any], dict[str, Any]]
    headline: dict[str, str]
    checks: dict[str, str]


#: Every benchmark suite, by the name its ``BENCH_<suite>.json`` uses.
SUITES: dict[str, Suite] = {
    "fastpath": Suite(
        config=FastpathBenchConfig,
        run=run_fastpath,
        headline={"invocation_reduction_campaign":
                  "campaign.invocation_reduction",
                  "invocation_reduction_shmoo": "shmoo.invocation_reduction",
                  "wallclock_speedup_batch": "campaign.speedup_batch",
                  "wallclock_speedup_adjacency": "adjacency.speedup",
                  "wallclock_speedup_draw": "draw.speedup"},
        checks={"records_match": "campaign.records_match",
                "grids_match": "shmoo.grids_match",
                "pairs_match": "adjacency.pairs_match",
                "defects_match": "draw.defects_match"}),
    "experiment": Suite(
        config=ExperimentBenchConfig,
        run=run_experiment,
        headline={"devices_per_sec": "streaming.devices_per_sec",
                  "speedup_vs_legacy": "legacy.speedup",
                  "memory_peak_ratio": "memory.peak_ratio",
                  "speedup_parallel": "pool.speedup"},
        checks={"memory_independent": "memory.memory_independent",
                "legacy_identical": "legacy.legacy_identical",
                "shard_invariant": "invariance.shard_invariant",
                "worker_invariant": "pool.worker_invariant"}),
    "service": Suite(
        config=ServiceBenchConfig,
        run=run_service,
        headline={"qps": "warm.qps",
                  "p50_ms": "warm.p50_ms",
                  "p99_ms": "warm.p99_ms",
                  "warm_hit_rate": "warm.hit_rate",
                  "cold_qps": "cold.qps"},
        checks={"byte_identical": "identity.byte_identical"}),
}

#: Every numeric bound, as (suite, headline metric) -> (kind, bound):
#: ``min`` means the metric must be at least the bound, ``max`` at
#: most.  The timing floors sit well below the measured figures so a
#: loaded host does not trip them, while an erosion of the fast path
#: does: the streaming floor catches a return to the ~26k devices/s
#: materialise-everything path, the warm service floor a cache that
#: stopped answering, and the cold service floor an estimator that
#: integrates its coverage tables per query again (~75/s).
FLOORS: dict[tuple[str, str], tuple[str, float]] = {
    ("fastpath", "invocation_reduction_campaign"): ("min", 5.0),
    ("fastpath", "invocation_reduction_shmoo"): ("min", 3.0),
    ("fastpath", "wallclock_speedup_batch"): ("min", 5.0),
    ("fastpath", "wallclock_speedup_adjacency"): ("min", 5.0),
    ("fastpath", "wallclock_speedup_draw"): ("min", 1.8),
    ("experiment", "devices_per_sec"): ("min", 50_000.0),
    ("experiment", "speedup_vs_legacy"): ("min", 5.0),
    ("experiment", "memory_peak_ratio"): ("max", 1.25),
    ("service", "qps"): ("min", 200.0),
    ("service", "warm_hit_rate"): ("min", 1.0),
    ("service", "cold_qps"): ("min", 300.0),
}


def _at(rows: dict[str, Any], path: str) -> Any:
    """The value at a dotted ``path`` in a suite's rows."""
    value: Any = rows
    for key in path.split("."):
        value = value[key]
    return value


def run_suite(name: str, config: Any = None) -> dict[str, Any]:
    """Run one suite and assemble its ``BENCH_<name>.json`` document.

    Args:
        name: A key of :data:`SUITES`.
        config: The suite's config (defaults to its default shape).

    Returns:
        The benchmark document (see the module docstring).

    Raises:
        RuntimeError: an equivalence contract broke during the run.
    """
    suite = SUITES[name]
    config = config if config is not None else suite.config()
    rows = suite.run(config)
    return {
        "schema": SCHEMA,
        "suite": name,
        "config": {**asdict(config), "cpu_count": os.cpu_count() or 1},
        "rows": rows,
        "headline": {metric: _at(rows, path)
                     for metric, path in suite.headline.items()},
        "checks": {flag: _at(rows, path)
                   for flag, path in suite.checks.items()},
    }


def _is_number(value: Any) -> bool:
    """True for a JSON number (``bool`` is an ``int`` but not one)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate(doc: Any) -> list[str]:
    """Validate a benchmark document against its suite and floors.

    Checks the schema tag, a known suite, the four object sections,
    every headline metric the suite declares (present and numeric),
    every :data:`FLOORS` bound of the suite, and every check flag the
    suite declares (present and ``true``).

    Args:
        doc: Parsed JSON document.

    Returns:
        Human-readable problems, each naming the offending field;
        empty when the document is valid.
    """
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    problems: list[str] = []
    if doc.get("schema") != SCHEMA:
        problems.append(f"schema != {SCHEMA!r}")
    name = doc.get("suite")
    suite = SUITES.get(name) if isinstance(name, str) else None
    if suite is None:
        problems.append(
            f"unknown suite {name!r} (expected one of {sorted(SUITES)})")
    for field in ("config", "rows", "headline", "checks"):
        if not isinstance(doc.get(field), dict):
            problems.append(f"missing or non-object {field!r}")
    headline, checks = doc.get("headline"), doc.get("checks")
    if suite is None:
        return problems
    if isinstance(headline, dict):
        for metric in suite.headline:
            if not _is_number(headline.get(metric)):
                problems.append(
                    f"headline.{metric} is missing or non-numeric")
        for (owner, metric), (kind, bound) in FLOORS.items():
            value = headline.get(metric)
            if owner != name or not _is_number(value):
                continue
            if kind == "min" and value < bound:
                problems.append(
                    f"headline.{metric} = {value} is below the "
                    f"{bound} floor")
            elif kind == "max" and value > bound:
                problems.append(
                    f"headline.{metric} = {value} is above the "
                    f"{bound} ceiling")
    if isinstance(checks, dict):
        for flag in suite.checks:
            if checks.get(flag) is not True:
                problems.append(f"checks.{flag} is not true")
    return problems
