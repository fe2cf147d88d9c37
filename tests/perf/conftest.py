"""Shared perf-test fixtures: counting campaign, tester, exact oracle.

The counting wrappers (:mod:`repro.perf.counting`) turn speedup claims
into deterministic call-count inequalities -- a fast-path test asserts
``exact_calls >= K * fast_calls`` instead of trusting wall-clock.  The
``exact_run`` fixture is the equivalence oracle: the per-site
:class:`~repro.runner.evaluate.UnitEvaluator` over a whole plan.
"""

import pytest

from repro.circuit.technology import CMOS018
from repro.defects.behavior import DefectBehaviorModel
from repro.ifa.flow import IfaCampaign
from repro.memory.geometry import MemoryGeometry
from repro.perf.counting import CountingBehaviorModel, CountingTester
from repro.runner.campaign import CampaignResult, CampaignRunner
from repro.runner.evaluate import UnitEvaluator
from repro.tester.ate import VirtualTester

GEOM = MemoryGeometry(16, 2, 4)


@pytest.fixture
def counting_campaign():
    """Factory for campaigns whose behaviour model counts its calls.

    Usage::

        campaign = counting_campaign()              # stock model
        campaign = counting_campaign(wrap=Lying)    # counted wrapper

    ``wrap`` (if given) is applied to the stock behaviour model first;
    the :class:`CountingBehaviorModel` always sits outermost so every
    ``fails_condition`` call is counted regardless of the wrapper.
    """
    def make(n_sites=40, seed=11, wrap=None):
        campaign = IfaCampaign(GEOM, CMOS018, n_sites=n_sites, seed=seed)
        inner = (campaign.behavior if wrap is None
                 else wrap(campaign.behavior))
        campaign.behavior = CountingBehaviorModel(inner)
        return campaign
    return make


@pytest.fixture
def counting_tester():
    """A virtual tester whose ``test_device`` calls are counted."""
    return CountingTester(VirtualTester(DefectBehaviorModel(CMOS018)))


@pytest.fixture
def exact_run():
    """Sweep a plan through the per-site evaluator, in plan order.

    Usage::

        oracle = exact_run(campaign, [spec])
        oracle.records, oracle.quarantine, oracle.retry_stats

    Returns a :class:`~repro.runner.campaign.CampaignResult` holding
    what a serial per-site sweep computes: the oracle every fast path
    is compared against.
    """
    def run(campaign, specs):
        evaluator = UnitEvaluator(campaign)
        result = CampaignResult(records=[])
        for unit in CampaignRunner(campaign).plan(specs):
            outcome = evaluator.evaluate(unit)
            result.records.append(outcome.record)
            result.quarantine.extend(outcome.quarantine)
            result.retry_stats.merge(outcome.stats)
            result.executed_units += 1
        return result
    return run
