"""Worker processes of the end-to-end benchmark.

``run.py`` starts this file as a child process, one per measured
operation (``report``, ``lot``) or one per server (``serve``), so every
operation pays what a user of ``python -m repro ...`` pays: interpreter
start, import and the work itself.  Modes:

* ``ready``  -- import the workload's modules and exit (set-up probe);
* ``report`` -- the canonical paper run with seeded inputs: IFA
  campaign -> coverage database -> Table 1 estimator, Figure 8
  thresholds, the Figure 11 lot, the MOVI extension and the test-plan
  Pareto front (``repro.analysis.report.full_report``, stage by stage);
* ``lot``    -- one 10^6-device streaming Veqtor4 lot;
* ``serve``  -- ``repro serve --port 0`` until SIGINT.

``report`` and ``lot`` print one JSON line: the correctness checks that
failed (empty when the outputs are right) and, with ``--trace 1``, the
span table.  ``serve`` prints its span table after shutdown; with
``--trace 1`` SIGUSR1 clears the table, so it covers only the measured
window.

Spans are recorded by this file around calls into each layer of
``repro`` (functions are wrapped from outside; the library is not
changed).  A wrapped name that no longer exists is skipped, so its layer
reads zero instead of breaking the run.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"

#: Devices per streaming lot: the million-device experiment.
LOT_DEVICES = 1_000_000

#: Sizes of the canonical report (the ``full_report`` defaults):
#: campaign sites, Figure 11 lot and test-plan samples.
REPORT_SITES = 4000
REPORT_DEVICES = 11000
REPORT_PLAN_SAMPLES = 3000


class Tracer:
    """Nested spans aggregated per name: calls, total and self seconds.

    A span's self time is its duration minus the time its child spans
    cover, so the self times of one operation partition its traced
    wall time.
    """

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}
        self._stack: list[list] = []

    def enter(self, name: str, start: float | None = None) -> None:
        self._stack.append(
            [name, time.perf_counter() if start is None else start, 0.0])

    def exit(self) -> None:
        name, start, child = self._stack.pop()
        duration = time.perf_counter() - start
        row = self.stats.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += duration
        row[2] += duration - child
        if self._stack:
            self._stack[-1][2] += duration

    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Record a span around every call of ``owner.attr``."""
        fn = getattr(owner, attr, None)
        if fn is None:
            return

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        setattr(owner, attr, traced)

    def wrap_iter(self, owner: object, attr: str, name: str) -> None:
        """Record a span around each step of the iterator ``owner.attr``
        returns; the consumer's work between steps is not counted."""
        fn = getattr(owner, attr, None)
        if fn is None:
            return

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            iterator = iter(fn(*args, **kwargs))
            while True:
                self.enter(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self.exit()
                yield item

        setattr(owner, attr, traced)


class _Span:
    """Context manager recording one span (a no-op without a tracer)."""

    def __init__(self, tracer: Tracer | None, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        if self.tracer is not None:
            self.tracer.enter(self.name)

    def __exit__(self, *exc: object) -> None:
        if self.tracer is not None:
            self.tracer.exit()


def _trace_library(tracer: Tracer) -> None:
    """Spans on the layers below the workloads' own entry points."""
    import repro.ifa.extraction as extraction
    import repro.service.app as app
    from repro.core.estimator import FaultCoverageEstimator
    from repro.experiment.classify import StressClassifier
    from repro.service.cache import ResponseCache
    from repro.service.schema import BatchRequest

    tracer.wrap(extraction, "find_adjacent_pairs", "ifa.adjacency")
    for attr in ("bridge_site_classes", "open_site_classes"):
        tracer.wrap(extraction.IfaExtractor, attr, "ifa.extract")
    tracer.wrap(FaultCoverageEstimator, "estimate", "estimator")
    tracer.wrap(StressClassifier, "classify_chip", "classify")
    tracer.wrap(app.EstimatorService, "dispatch", "service.dispatch")
    tracer.wrap(app, "parse_request", "service.schema")
    tracer.wrap(BatchRequest, "canonical_body", "service.cache")
    tracer.wrap(app, "response_cache_key", "service.cache")
    tracer.wrap(ResponseCache, "get", "service.cache")
    tracer.wrap(ResponseCache, "put", "service.cache")
    for attr in ("report_document", "batch_response_document", "_render"):
        tracer.wrap(app, attr, "service.render")


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def _import(mode: str) -> None:
    """Import what ``mode`` runs (the set-up every operation pays)."""
    if mode == "report":
        import repro.analysis.report  # noqa: F401
        import repro.core.testplan  # noqa: F401
        import repro.faults.address_delay  # noqa: F401
        import repro.tester.movi  # noqa: F401
    elif mode == "lot":
        import repro.experiment.streaming  # noqa: F401
    else:
        import repro.cli  # noqa: F401


def run_report(seed: int, tracer: Tracer | None) -> list[str]:
    """The canonical paper run with seeded inputs; returns failed checks."""
    import numpy as np

    from repro.circuit.technology import CMOS018
    from repro.core.flow import MemoryTestFlow
    from repro.core.testplan import JointCoverageTable, TestPlanOptimizer
    from repro.defects.behavior import DefectBehaviorModel
    from repro.experiment.classify import StressClassifier
    from repro.experiment.population import (
        PopulationGenerator,
        PopulationSpec,
    )
    from repro.experiment.venn import VennCounts
    from repro.faults.address_delay import generate_address_delay_faults
    from repro.march.library import TEST_11N
    from repro.memory.geometry import VEQTOR4_INSTANCE
    from repro.stress import production_conditions
    from repro.tester.movi import MoviExecutor

    draw = random.Random(seed)
    flow_seed, lot_seed, plan_seed = (draw.randrange(1 << 30)
                                      for _ in range(3))
    failed: list[str] = []

    with _Span(tracer, "campaign"):
        result = MemoryTestFlow(VEQTOR4_INSTANCE, n_sites=REPORT_SITES,
                                seed=flow_seed).run()
    report = result.bridge_report
    coverages = [fc for e in report.estimates
                 for fc in e.fault_coverage.values()]
    if not coverages or not all(0.0 <= fc <= 1.0 for fc in coverages):
        failed.append("table1: fault coverage outside [0, 1]")
    if report.best_condition().condition != "VLV":
        failed.append("table1: VLV is not the best bridge condition")
    ratio = report.dpm_ratio("Vmax", "VLV")
    if not 3.0 <= ratio <= 30.0:
        failed.append(f"table1: Vmax/VLV DPM ratio {ratio:.2f} is not "
                      "within [3, 30] (paper: 9.3)")

    with _Span(tracer, "extensions"):
        behavior = DefectBehaviorModel(CMOS018)
        freqs = np.array([25e6, 50e6, 66e6, 100e6, 150e6, 200e6])
        thresholds = [behavior.open_detection_threshold(1.0 / f)
                      for f in freqs]
    if any(b >= a for a, b in zip(thresholds, thresholds[1:])):
        failed.append("fig8: open threshold does not fall with frequency")

    with _Span(tracer, "population"):
        chips = PopulationGenerator(PopulationSpec(
            n_devices=REPORT_DEVICES, seed=lot_seed)).generate()
    with _Span(tracer, "classify"):
        experiment = StressClassifier().classify(chips)
    if VennCounts.from_experiment(experiment).total <= 0:
        failed.append("fig11: the lot has no interesting devices")
    if experiment.escape_dpm("VLV") <= experiment.escape_dpm("Vmax"):
        failed.append("fig11: VLV catches no more escapes than Vmax")

    with _Span(tracer, "extensions"):
        executor = MoviExecutor(5)
        universe = generate_address_delay_faults(5)
        linear = sum(executor.linear_reference(TEST_11N, f).detected
                     for f in universe)
        movi = sum(executor.run(TEST_11N, f,
                                stop_at_first_detection=True).detected
                   for f in universe)
    if movi < linear:
        failed.append("movi: MOVI detects fewer delay faults than linear")

    with _Span(tracer, "testplan"):
        table = JointCoverageTable(VEQTOR4_INSTANCE, CMOS018,
                                   production_conditions(CMOS018),
                                   n_samples=REPORT_PLAN_SAMPLES,
                                   seed=plan_seed)
        front = TestPlanOptimizer(table, TEST_11N).pareto_front()
    if not front:
        failed.append("testplan: empty Pareto front")
    return failed


def run_lot(seed: int, tracer: Tracer | None) -> list[str]:
    """One streaming 10^6-device lot; returns failed checks."""
    from repro.experiment.streaming import (
        StreamingExperiment,
        StreamingRunner,
    )

    engine = StreamingExperiment(n_devices=LOT_DEVICES, seed=seed)
    if tracer is not None:
        tracer.wrap_iter(engine, "iter_shard_chips", "lot.generate")
    with _Span(tracer, "lot.runner"):
        result = StreamingRunner(engine).run()
    acc = result.accumulator
    failed: list[str] = []
    if acc.devices != LOT_DEVICES or acc.errors:
        failed.append(f"lot: {acc.devices} devices, {acc.errors} errors")
    expected = engine.generator.expected_defective_fraction()
    measured = acc.defective / LOT_DEVICES
    if abs(measured - expected) > 0.05 * expected:
        failed.append(f"lot: defective fraction {measured:.4f} is not "
                      f"within 5% of the yield model's {expected:.4f}")
    if acc.interesting <= 0:
        failed.append("lot: no interesting devices")
    if acc.escape_dpm("VLV") <= acc.escape_dpm("Vmax"):
        failed.append("lot: VLV catches no more escapes than Vmax")
    return failed


def run_serve(tracer: Tracer | None) -> int:
    """``repro serve --port 0`` in this process until SIGINT."""
    from repro.cli import main as repro_main

    if tracer is not None:
        signal.signal(signal.SIGUSR1, lambda *_: tracer.stats.clear())
    return repro_main(["serve", "--port", "0"])


def expected_responses(bodies: list[bytes]) -> list[bytes]:
    """What an in-process estimator renders for each request body.

    The service's contract: a batch response is the canonical JSON of
    :func:`repro.service.schema.report_document` over the equivalent
    :meth:`FaultCoverageEstimator.estimate` calls on the database
    ``repro serve`` loads by default.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from repro.core.database import default_database_path
    from repro.runner.atomic import canonical_json
    from repro.service.schema import (
        batch_response_document,
        parse_request,
        report_document,
    )
    from repro.service.state import DatabaseSnapshot

    snapshot = DatabaseSnapshot.load(default_database_path())
    rendered = []
    for body in bodies:
        results = []
        for query in parse_request(body).queries:
            report = snapshot.estimator.estimate(
                query.geometry, query.kind,
                yield_fraction=query.yield_fraction)
            results.append(report_document(report, query.conditions))
        doc = batch_response_document(snapshot.etag, results)
        rendered.append(canonical_json(doc).encode("utf-8") + b"\n")
    return rendered


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("ready", "report", "lot", "serve"))
    parser.add_argument("--workload", choices=("report", "lot"),
                        default="report",
                        help="the workload whose imports 'ready' probes")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))

    _import(args.workload if args.mode == "ready" else args.mode)
    if args.mode == "ready":
        return 0
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.enter("import", _STARTED)
        tracer.exit()
        _trace_library(tracer)
    if args.mode == "serve":
        status = run_serve(tracer)
        spans = tracer.stats if tracer is not None else {}
        print(json.dumps({"spans": spans}), flush=True)
        return status
    run = run_report if args.mode == "report" else run_lot
    failed = run(args.seed, tracer)
    spans = tracer.stats if tracer is not None else {}
    print(json.dumps({"failed": failed, "spans": spans}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
