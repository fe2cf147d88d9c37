"""Tests for MemoryTestFlow's campaign: the grid path and its oracles.

A serial ``MemoryTestFlow.run()`` -- what ``python -m
repro.analysis.report`` runs -- evaluates the paper's sweep through
the grid evaluator (:mod:`repro.perf.batch`).  Its records must equal
a direct pass of the per-site
:class:`~repro.runner.evaluate.UnitEvaluator`, at the paper's Table 1
bridge grid and the default open grid, over every production
condition.
"""

import dataclasses
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.core.flow import MemoryTestFlow
from repro.memory.geometry import MemoryGeometry
from repro.runner.evaluate import UnitEvaluator

GEOM = MemoryGeometry(32, 4, 8)
SRC = Path(__file__).resolve().parents[2] / "src"


def records_bytes(records):
    return json.dumps([dataclasses.asdict(r) for r in records],
                      sort_keys=True).encode()


def make_flow():
    return MemoryTestFlow(GEOM, n_sites=300, seed=5)


@pytest.fixture(scope="module")
def serial_run():
    return make_flow().run()


class TestGridOracle:
    def test_serial_run_takes_the_grid_path(self, serial_run):
        stats = serial_run.campaign.batch_stats
        assert stats is not None
        assert stats["groups"] == 10  # 2 kinds x 5 conditions
        assert stats["batch_sites"] == stats["sites"] > 0
        assert stats["demoted_sites"] == 0

    def test_matches_per_site_evaluator(self, serial_run):
        flow = make_flow()
        plan = flow.make_runner().plan(flow.sweep_specs())
        kinds = {u.kind.value for u in plan}
        conditions = {u.condition.name for u in plan}
        assert kinds == {"bridge", "open"}
        assert len(conditions) == 5
        evaluator = UnitEvaluator(flow.campaign)
        oracle = [evaluator.evaluate(unit).record for unit in plan]
        assert records_bytes(serial_run.campaign.records) == (
            records_bytes(oracle))


class TestImportFootprint:
    def test_serial_run_loads_no_pool_machinery(self):
        """A campaign never loads the lot pool's modules."""
        script = textwrap.dedent("""
            import sys
            from repro.core.flow import MemoryTestFlow
            from repro.memory.geometry import MemoryGeometry

            MemoryTestFlow(MemoryGeometry(16, 2, 4), n_sites=40).run()
            print(sorted(m for m in ("concurrent.futures",
                                     "multiprocessing")
                         if m in sys.modules))
        """)
        out = subprocess.run(
            [sys.executable, "-c", script], check=True,
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)))
        assert out.stdout.strip() == "[]"
