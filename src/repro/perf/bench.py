"""Campaign-execution benchmark: serial vs pooled vs cached.

Produces the ``BENCH_campaign.json`` artefact documented in
``docs/performance.md``.  The harness times the same sweep three ways
-- serial (the grid evaluator, :mod:`repro.perf.batch`), across the
supervised worker pool (:mod:`repro.perf.supervisor`), and against a
warm evaluation cache -- and verifies on the way that all of them
produce byte-identical records (the :mod:`repro.perf` determinism
contract is *measured*, not assumed).

Two workloads are timed, because they answer different questions:

* ``cpu`` -- the stock in-memory behaviour model.  Speedup here is
  bounded by physical cores, so the harness clamps this workload's
  worker count to ``min(requested, os.cpu_count())`` (with a logged
  warning, and ``workers_clamped`` recorded in the artefact):
  oversubscribing a CPU-bound pool cannot help and used to make the
  committed artefact report a meaningless 0.18x "speedup" on a
  single-CPU container.
* ``sim`` -- the same campaign behind
  :class:`SiteLatencyBehaviorModel`, which adds a small per-site sleep
  modelling the paper's actual workload: each site evaluation is a call
  into an external analogue simulator and is latency-, not CPU-, bound
  (the very reason the paper pre-computes its simulation database).
  Workers overlap that latency, so the speedup approaches the worker
  count even on one core.  The wrapper offers no batch hook, so its
  serial row runs the scalar per-site loop.

The cache rows use the ``cpu`` workload: a warm cache answers every
point without evaluating, so its hit rate -- not raw time -- is the
headline figure.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import asdict, dataclass
from typing import Any

from repro.circuit.technology import CMOS018
from repro.defects.models import DefectKind
from repro.ifa.flow import IfaCampaign
from repro.memory.geometry import MemoryGeometry
from repro.perf.cache import EvaluationCache
from repro.runner.campaign import CampaignResult, CampaignRunner, SweepSpec
from repro.stress import production_conditions

#: Schema tag of the emitted BENCH_campaign.json document.
BENCH_SCHEMA = "repro.bench-campaign/1"


@dataclass(frozen=True)
class BenchConfig:
    """Shape of the benchmark sweep.

    Attributes:
        rows, columns, bits: Memory geometry of the benchmark campaign.
        sites: Site-population size per sweep.
        resistances: Number of sweep resistances (log-spaced decades).
        conditions: Number of stress conditions used.
        workers: Requested worker-process count for the pool rows.
            The cpu-bound workload is clamped to
            ``min(workers, os.cpu_count())`` at run time (recorded in
            the artefact as ``workers`` vs ``workers_requested`` plus
            the ``workers_clamped`` flag); the latency-bound ``sim``
            workload keeps the requested count, since oversubscription
            is how it overlaps external latency.
        sim_latency: Per-site simulated-simulator latency (seconds) of
            the ``sim`` workload.
        seed: Campaign seed.
    """

    rows: int = 32
    columns: int = 4
    bits: int = 8
    sites: int = 120
    resistances: int = 4
    conditions: int = 4
    workers: int = 4
    sim_latency: float = 0.004
    seed: int = 11

    @classmethod
    def quick(cls) -> "BenchConfig":
        """A seconds-scale configuration for CI smoke runs."""
        return cls(rows=16, columns=2, bits=4, sites=24, resistances=3,
                   conditions=3, sim_latency=0.001)


class SiteLatencyBehaviorModel:
    """A behaviour model with per-site latency: the paper's real workload.

    In the source flow every site evaluation is a call into an external
    analogue simulator; the in-memory model used by this reproduction
    answers in microseconds instead.  Wrapping it with a fixed per-call
    sleep restores the original latency-bound execution profile so the
    executor benchmark measures the regime the process pool exists for.

    Picklable (ships to worker processes) and fingerprintable (the
    cache key covers both the inner model and the latency).

    Args:
        inner: The real behaviour model to delegate to.
        latency: Seconds slept before every site evaluation.
    """

    def __init__(self, inner: Any, latency: float) -> None:
        self.inner = inner
        self.latency = float(latency)

    def fails_condition(self, defect: Any, condition: Any) -> bool:
        """Delegate to the inner model after the simulated round-trip."""
        time.sleep(self.latency)
        return self.inner.fails_condition(defect, condition)


def _records_blob(result: CampaignResult) -> str:
    """Canonical byte-comparison form of a result's records."""
    return json.dumps([asdict(r) for r in result.records], sort_keys=True)


def _bench_specs(config: BenchConfig) -> list[SweepSpec]:
    """The benchmark sweep plan derived from the config."""
    conds = tuple(production_conditions(CMOS018).values())
    conds = conds[:config.conditions]
    resistances = [10.0 ** (2 + i) for i in range(config.resistances)]
    return [SweepSpec.of(DefectKind.BRIDGE, resistances, conds)]


def _make_campaign(config: BenchConfig,
                   sim: bool = False) -> IfaCampaign:
    """A fresh benchmark campaign (optionally latency-wrapped)."""
    geometry = MemoryGeometry(config.rows, config.columns, config.bits)
    campaign = IfaCampaign(geometry, CMOS018, n_sites=config.sites,
                           seed=config.seed)
    if sim:
        campaign.behavior = SiteLatencyBehaviorModel(
            campaign.behavior, config.sim_latency)
    return campaign


def _timed_run(runner: CampaignRunner,
               specs: list[SweepSpec]) -> tuple[CampaignResult, float]:
    """Run a campaign and return (result, wall seconds)."""
    started = time.perf_counter()
    result = runner.run(specs)
    return result, time.perf_counter() - started


def _workload_row(units: int, seconds: float) -> dict[str, Any]:
    """One timing row of the benchmark document."""
    return {
        "seconds": round(seconds, 6),
        "units": units,
        "units_per_sec": round(units / seconds, 3) if seconds else None,
    }


def run_benchmark(config: BenchConfig | None = None) -> dict[str, Any]:
    """Time the benchmark sweep serial / pooled / cached.

    Args:
        config: Benchmark shape (defaults to :class:`BenchConfig`).

    Returns:
        The ``BENCH_campaign.json`` document (see :func:`validate_bench`
        for the schema).

    Raises:
        RuntimeError: the pooled or cached records diverged from the
            serial ones -- a determinism bug that must fail loudly.
    """
    config = config if config is not None else BenchConfig()
    specs = _bench_specs(config)
    workloads: dict[str, Any] = {}

    # The cpu-bound workload cannot gain from more workers than cores,
    # so its worker count is clamped to min(requested, os.cpu_count()).
    # The sim workload keeps the requested count on purpose: it is
    # latency-bound, and oversubscription is exactly how a pool
    # overlaps external-simulator latency on few cores.
    cpu_workers = min(config.workers, _cpu_count())
    if cpu_workers < config.workers:
        print(f"bench: clamping the cpu-bound workload to {cpu_workers} "
              f"worker(s) ({config.workers} requested, "
              f"{_cpu_count()} CPU(s) visible)", file=sys.stderr)

    for name, sim in (("cpu", False), ("sim", True)):
        workers = cpu_workers if name == "cpu" else config.workers
        serial, t_serial = _timed_run(
            CampaignRunner(_make_campaign(config, sim)), specs)
        pooled, t_pooled = _timed_run(
            CampaignRunner(_make_campaign(config, sim),
                           workers=workers), specs)
        if _records_blob(serial) != _records_blob(pooled):
            raise RuntimeError(
                f"{name}: supervised records diverged from serial")
        units = len(serial.records)
        workloads[name] = {
            "serial": _workload_row(units, t_serial),
            "supervised": {**_workload_row(units, t_pooled),
                           "workers": workers,
                           "workers_requested": config.workers},
            "speedup": round(t_serial / t_pooled, 3),
            "supervised_matches_serial": True,
        }
    workloads["cpu"]["workers_clamped"] = cpu_workers < config.workers

    # Cache rows: cold run populates, warm run answers from the cache.
    cache = EvaluationCache()
    cold, t_cold = _timed_run(
        CampaignRunner(_make_campaign(config), cache=cache), specs)
    warm_cache = EvaluationCache()
    warm_cache.entries = dict(cache.entries)
    warm, t_warm = _timed_run(
        CampaignRunner(_make_campaign(config), cache=warm_cache), specs)
    if _records_blob(cold) != _records_blob(warm):
        raise RuntimeError("cached records diverged from evaluated ones")
    units = len(cold.records)
    workloads["cache"] = {
        "cold": {**_workload_row(units, t_cold),
                 **{"hit_rate": cold.cache_stats["hit_rate"]}},
        "warm": {**_workload_row(units, t_warm),
                 **{"hit_rate": warm.cache_stats["hit_rate"],
                    "cached_units": warm.cached_units}},
        "speedup": round(t_cold / t_warm, 3) if t_warm else None,
        "cached_matches_evaluated": True,
    }

    return {
        "schema": BENCH_SCHEMA,
        "config": asdict(config),
        "cpu_count": _cpu_count(),
        "workloads": workloads,
        # Headline figures: the latency-bound workload is the regime
        # the executor targets (see module docstring) and the warm
        # cache hit rate is the cache's contract.
        "speedup_parallel": workloads["sim"]["speedup"],
        "speedup_parallel_cpu_bound": workloads["cpu"]["speedup"],
        "cache_hit_rate": workloads["cache"]["warm"]["hit_rate"],
    }


def _cpu_count() -> int:
    """Visible CPU count (recorded so readers can judge the cpu rows)."""
    import os

    return os.cpu_count() or 1


def validate_bench(doc: Any) -> list[str]:
    """Validate a BENCH_campaign.json document's schema.

    Used by the test suite and the ``scripts/check.sh`` smoke step.

    Args:
        doc: Parsed JSON document.

    Returns:
        Human-readable problems; empty when the document is valid.
    """
    problems: list[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    if doc.get("schema") != BENCH_SCHEMA:
        problems.append(f"schema != {BENCH_SCHEMA!r}")
    for field in ("config", "workloads"):
        if not isinstance(doc.get(field), dict):
            problems.append(f"missing or non-object {field!r}")
    for field in ("speedup_parallel", "speedup_parallel_cpu_bound",
                  "cache_hit_rate"):
        if not isinstance(doc.get(field), (int, float)):
            problems.append(f"missing or non-numeric {field!r}")
    workloads = doc.get("workloads")
    if isinstance(workloads, dict):
        for name in ("cpu", "sim"):
            wl = workloads.get(name)
            if not isinstance(wl, dict):
                problems.append(f"missing workload {name!r}")
                continue
            for row in ("serial", "supervised"):
                if not isinstance(wl.get(row), dict):
                    problems.append(f"workload {name!r}: missing {row!r}")
            if wl.get("supervised_matches_serial") is not True:
                problems.append(
                    f"workload {name!r}: supervised_matches_serial is "
                    "not true")
            pooled = wl.get("supervised")
            if isinstance(pooled, dict) and not isinstance(
                    pooled.get("workers_requested"), int):
                problems.append(
                    f"workload {name!r}: supervised row lacks "
                    "'workers_requested'")
        cpu = workloads.get("cpu")
        if isinstance(cpu, dict) and not isinstance(
                cpu.get("workers_clamped"), bool):
            problems.append(
                "workload 'cpu': missing 'workers_clamped' flag (the "
                "artefact must record whether the cpu-bound pool was "
                "clamped to the visible CPU count)")
        cache = workloads.get("cache")
        if not isinstance(cache, dict):
            problems.append("missing workload 'cache'")
        else:
            for row in ("cold", "warm"):
                if not isinstance(cache.get(row), dict):
                    problems.append(f"workload 'cache': missing {row!r}")
            if cache.get("cached_matches_evaluated") is not True:
                problems.append(
                    "workload 'cache': cached_matches_evaluated is not "
                    "true")
    return problems
