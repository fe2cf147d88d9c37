"""Emit (or validate) the BENCH_frontier.json fast-path benchmark.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_frontier.py
    PYTHONPATH=src python benchmarks/perf/bench_frontier.py --quick
    PYTHONPATH=src python benchmarks/perf/bench_frontier.py \
        --validate BENCH_frontier.json

The default configuration takes seconds; ``--quick`` shrinks the
campaign half to a CI-smoke scale (the emitted schema is identical and
the invocation-reduction floors still apply).  See
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
        description="Benchmark the fast paths: the grid-evaluated "
                    "campaign sweep and the boundary-traced shmoo vs "
                    "their exact equivalents.")
    parser.add_argument("--out", metavar="PATH",
                        default="BENCH_frontier.json",
                        help="output file (default: BENCH_frontier.json)")
    parser.add_argument("--quick", action="store_true",
                        help="seconds-scale configuration for smoke runs")
    parser.add_argument("--sites", type=int, default=None,
                        help="override the site-population size of the "
                             "campaign half")
    parser.add_argument("--validate", metavar="PATH", default=None,
                        help="validate an existing benchmark file and "
                             "exit (no benchmark run)")
    return parser


def main(argv: list[str] | None = None) -> int:
    from repro.perf.frontier_bench import (
        FrontierBenchConfig,
        run_frontier_benchmark,
        validate_frontier_bench,
    )

    args = _parser().parse_args(argv)
    if args.validate is not None:
        doc = json.loads(Path(args.validate).read_text())
        problems = validate_frontier_bench(doc)
        for problem in problems:
            print(f"BENCH schema: {problem}", file=sys.stderr)
        print(f"{args.validate}: "
              + ("OK" if not problems else f"{len(problems)} problem(s)"))
        return 0 if not problems else 1

    config = (FrontierBenchConfig.quick() if args.quick
              else FrontierBenchConfig())
    if args.sites is not None:
        config = replace(config, sites=args.sites)

    doc = run_frontier_benchmark(config)
    atomic_write_text(args.out, json.dumps(doc, indent=2,
                                       sort_keys=True) + "\n")
    campaign = doc["campaign"]
    shmoo = doc["shmoo"]
    print(f"wrote {args.out}")
    print(f"  campaign (Table-1 sweep, grid evaluator): "
          f"{campaign['exact']['model_invocations']} -> "
          f"{campaign['batch']['model_invocations']} model invocations "
          f"({doc['invocation_reduction_campaign']}x fewer, cross-checks "
          f"included), {campaign['speedup_batch']}x wall-clock vs "
          f"exact, records byte-identical")
    print(f"  shmoo (paper-sized grid): "
          f"{shmoo['exact']['tester_invocations']} -> "
          f"{shmoo['boundary']['tester_invocations']} tester invocations "
          f"({doc['invocation_reduction_shmoo']}x fewer), "
          f"grids identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
