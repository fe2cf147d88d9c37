"""Emit (or validate) the BENCH_campaign.json execution benchmark.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_campaign.py
    PYTHONPATH=src python benchmarks/perf/bench_campaign.py --quick
    PYTHONPATH=src python benchmarks/perf/bench_campaign.py \
        --validate BENCH_campaign.json

The default configuration takes tens of seconds; ``--quick`` shrinks it
to a CI-smoke scale (the emitted schema is identical).  See
``docs/performance.md`` for how to read the output.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from repro.runner.atomic import atomic_write_text


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="Benchmark campaign execution: serial vs the "
                    "supervised pool vs cached.")
    parser.add_argument("--out", metavar="PATH",
                        default="BENCH_campaign.json",
                        help="output file (default: BENCH_campaign.json)")
    parser.add_argument("--quick", action="store_true",
                        help="seconds-scale configuration for smoke runs")
    parser.add_argument("--sites", type=int, default=None,
                        help="override the site-population size")
    parser.add_argument("--workers", type=int, default=None,
                        help="override the requested worker count (the "
                             "cpu-bound workload is clamped to "
                             "min(requested, os.cpu_count()); the "
                             "latency-bound sim workload keeps the "
                             "request)")
    parser.add_argument("--sim-latency", type=float, default=None,
                        help="override the per-site simulator latency (s)")
    parser.add_argument("--validate", metavar="PATH", default=None,
                        help="validate an existing benchmark file and "
                             "exit (no benchmark run)")
    return parser


def main(argv: list[str] | None = None) -> int:
    from repro.perf.bench import BenchConfig, run_benchmark, validate_bench

    args = _parser().parse_args(argv)
    if args.validate is not None:
        doc = json.loads(Path(args.validate).read_text())
        problems = validate_bench(doc)
        for problem in problems:
            print(f"BENCH schema: {problem}", file=sys.stderr)
        print(f"{args.validate}: "
              + ("OK" if not problems else f"{len(problems)} problem(s)"))
        return 0 if not problems else 1

    config = BenchConfig.quick() if args.quick else BenchConfig()
    overrides = {
        name: value
        for name, value in (("sites", args.sites),
                            ("workers", args.workers),
                            ("sim_latency", args.sim_latency))
        if value is not None
    }
    if overrides:
        config = replace(config, **overrides)

    doc = run_benchmark(config)
    atomic_write_text(args.out, json.dumps(doc, indent=2,
                                       sort_keys=True) + "\n")
    sim = doc["workloads"]["sim"]
    print(f"wrote {args.out}")
    print(f"  sim workload: {sim['serial']['units_per_sec']} -> "
          f"{sim['supervised']['units_per_sec']} units/s "
          f"({doc['speedup_parallel']}x at "
          f"{doc['config']['workers']} workers)")
    cpu = doc["workloads"]["cpu"]
    clamp_note = (
        f", clamped from {cpu['supervised']['workers_requested']} "
        "requested"
        if cpu["workers_clamped"] else "")
    print(f"  cpu workload: {doc['speedup_parallel_cpu_bound']}x at "
          f"{cpu['supervised']['workers']} worker(s){clamp_note} "
          f"(host has {doc['cpu_count']} CPU(s))")
    print(f"  cache hit rate (warm): "
          f"{100 * doc['cache_hit_rate']:.0f} %")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
