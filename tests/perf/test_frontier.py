"""The grid fast path's end-to-end contract, through the runner.

A :class:`~repro.runner.campaign.CampaignRunner` run evaluates whole
(population x resistance grid) groups at once (the grid evaluator of
:mod:`repro.perf.batch`).  Honest kernel or lying one, its records
must be byte-identical to the per-site oracle -- the ``exact_run``
fixture -- while the honest kernel costs several-fold fewer per-site
behaviour-model calls.
:mod:`tests.perf.test_batch` drives the evaluator directly; this
module holds the same guarantees at the runner boundary.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.circuit.technology import CMOS018
from repro.defects.models import DefectKind
from repro.ifa.flow import TABLE1_RESISTANCES
from repro.perf.batch import BatchEvaluator
from repro.runner.campaign import CampaignRunner, SweepSpec
from repro.stress import production_conditions


def all_conditions():
    return tuple(production_conditions(CMOS018).values())


def table1_spec():
    return SweepSpec.of(DefectKind.BRIDGE, TABLE1_RESISTANCES,
                        all_conditions())


def opens_spec():
    resistances = tuple(float(r) for r in np.logspace(4, 7.5, 8))
    return SweepSpec.of(DefectKind.OPEN, resistances, all_conditions())


def records_bytes(records):
    """Canonical byte serialisation for exact-identity comparison."""
    return json.dumps([dataclasses.asdict(r) for r in records],
                      sort_keys=True).encode()


class LyingBatchModel:
    """Claims every cell is detected (a lie); ``fails_condition``
    stays honest."""

    def __init__(self, inner):
        self._inner = inner

    def fails_condition(self, defect, condition):
        return self._inner.fails_condition(defect, condition)

    def evaluate_batch(self, sites, resistances, condition):
        return np.ones((len(sites), len(resistances)), dtype=bool)


class TestEquivalence:
    def test_table1_byte_identical_with_5x_fewer_calls(
            self, counting_campaign, exact_run):
        exact_campaign = counting_campaign()
        exact = exact_run(exact_campaign, [table1_spec()])
        serial_campaign = counting_campaign()
        serial = CampaignRunner(serial_campaign).run([table1_spec()])
        assert records_bytes(serial.records) == records_bytes(
            exact.records)
        assert exact_campaign.behavior.calls >= (
            5 * serial_campaign.behavior.calls)
        stats = serial.batch_stats
        assert stats is not None
        assert stats["batch_sites"] == stats["sites"]
        assert stats["crosscheck_mismatches"] == 0

    def test_opens_sweep_byte_identical(self, counting_campaign,
                                        exact_run):
        exact_campaign = counting_campaign()
        exact = exact_run(exact_campaign, [opens_spec()])
        serial_campaign = counting_campaign()
        serial = CampaignRunner(serial_campaign).run([opens_spec()])
        assert records_bytes(serial.records) == records_bytes(
            exact.records)
        assert exact_campaign.behavior.calls >= (
            5 * serial_campaign.behavior.calls)


class TestFallbacks:
    def test_lying_frontier_is_caught_by_crosscheck(
            self, counting_campaign, exact_run):
        exact = exact_run(counting_campaign(), [table1_spec()])
        campaign = counting_campaign(wrap=LyingBatchModel)
        plan = CampaignRunner(campaign).plan([table1_spec()])
        evaluator = BatchEvaluator(campaign, plan, crosscheck_fraction=1.0)
        records = [evaluator.evaluate(unit).record for unit in plan]
        assert records_bytes(exact.records) == records_bytes(records)
        stats = evaluator.stats.as_dict()
        assert stats["crosscheck_mismatches"] > 0
        assert stats["demoted_sites"] > 0
        # The demotion ledger says why each site fell off the fast path.
        assert stats["demotions"]
        for entry in stats["demotions"]:
            assert entry["reason"] == "lying-model"
            assert entry["stage"] == "crosscheck"
            assert "batch row says" in entry["error"]


class TestRunnerIntegration:
    def test_unknown_strategy_rejected(self, counting_campaign):
        """No strategy knob: a campaign has one evaluator."""
        with pytest.raises(TypeError, match="strategy"):
            CampaignRunner(counting_campaign(), strategy="turbo")
