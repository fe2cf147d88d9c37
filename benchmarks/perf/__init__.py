"""Component benchmarks of the library's own execution layer.

Unlike the sibling ``benchmarks/test_*`` modules -- which check the
reproduction against the paper's *numbers* -- this package measures
the library itself.  ``bench.py SUITE`` runs one suite of
:mod:`repro.perf.bench` and writes ``BENCH_<suite>.json``;
``docs/performance.md`` explains how to read it.
"""
