"""Run one component benchmark suite, or validate a BENCH document.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench.py SUITE          # BENCH_<SUITE>.json
    PYTHONPATH=src python benchmarks/perf/bench.py SUITE --quick  # CI-smoke scale
    PYTHONPATH=src python benchmarks/perf/bench.py SUITE --out PATH
    PYTHONPATH=src python benchmarks/perf/bench.py --validate BENCH_fastpath.json

``SUITE`` is one of ``fastpath``, ``experiment`` and ``service`` (:data:`repro.perf.bench.SUITES`).  ``--quick`` shrinks the
suite to seconds; the document has the same schema and the same floors
apply.  ``--validate`` reads the suite from the document and exits 1
with one line per problem when it breaks the schema, a check or a
floor.  See ``docs/performance.md`` for how to read the output.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.perf.bench import SUITES, run_suite, validate
from repro.runner.atomic import atomic_write_text


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="Run one component benchmark suite and write its "
                    "BENCH_<suite>.json, or validate a BENCH document.")
    parser.add_argument("suite", nargs="?", choices=sorted(SUITES),
                        help="the suite to run")
    parser.add_argument("--quick", action="store_true",
                        help="seconds-scale configuration for smoke runs")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="output file (default: BENCH_<suite>.json)")
    parser.add_argument("--validate", metavar="PATH", default=None,
                        help="validate an existing benchmark file and "
                             "exit (no benchmark run)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.validate is not None:
        problems = validate(json.loads(Path(args.validate).read_text()))
        for problem in problems:
            print(f"BENCH schema: {problem}", file=sys.stderr)
        print(f"{args.validate}: "
              + ("OK" if not problems else f"{len(problems)} problem(s)"))
        return 0 if not problems else 1
    if args.suite is None:
        parser.error("a SUITE to run, or --validate PATH, is required")

    suite = SUITES[args.suite]
    doc = run_suite(args.suite,
                    suite.config.quick() if args.quick else suite.config())
    out = args.out if args.out is not None else f"BENCH_{args.suite}.json"
    atomic_write_text(out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    for metric, value in doc["headline"].items():
        print(f"  {metric}: {value}")
    print("  checks: " + ", ".join(
        f"{flag}={value}" for flag, value in doc["checks"].items()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
