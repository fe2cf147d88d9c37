"""Tests for repro.perf.batch: the scalar path as equivalence oracle.

The contract under test: the campaign's grid evaluator emits records
byte-identical to a per-site
:class:`~repro.runner.evaluate.UnitEvaluator` pass (the ``exact_run``
fixture) for *every* model in the capability matrix -- a correct vectorised hook, a model without the hook, a hook
that raises or returns the wrong shape, and a hook that lies -- and
under chaos and kill/resume.  Wall-clock is the
benchmark's business (the ``fastpath`` suite of
:mod:`repro.perf.bench`); here the speedup claim appears only as
deterministic call-count inequalities.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.circuit.technology import CMOS018
from repro.defects.behavior import DefectBehaviorModel
from repro.defects.models import DefectKind
from repro.ifa.flow import TABLE1_RESISTANCES
from repro.perf.batch import BatchEvaluator
from repro.runner.campaign import CampaignRunner, SweepSpec
from repro.runner.chaos import ChaosBehaviorModel, FaultInjector, InjectedCrash
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


class OpaqueModel:
    """Delegates ``fails_condition`` only -- offers no batch hook."""

    def __init__(self, inner):
        self._inner = inner

    def fails_condition(self, defect, condition):
        return self._inner.fails_condition(defect, condition)


class LyingBatchModel(OpaqueModel):
    """Claims every cell is detected (a lie the cross-check catches)."""

    def evaluate_batch(self, sites, resistances, condition):
        return np.ones((len(sites), len(resistances)), dtype=bool)


class BadShapeBatchModel(OpaqueModel):
    """Returns a transposed matrix (wrong shape, honest otherwise)."""

    def evaluate_batch(self, sites, resistances, condition):
        return np.zeros((len(resistances), len(sites)), dtype=bool)


class RaisingBatchModel(OpaqueModel):
    """A hook that blows up on every call."""

    def evaluate_batch(self, sites, resistances, condition):
        raise RuntimeError("vector unit on fire")


class TestBatchHookOracle:
    """evaluate_batch agrees with fails_condition, cell by cell."""

    @pytest.mark.parametrize("kind", [DefectKind.BRIDGE, DefectKind.OPEN])
    def test_matches_exact_model_everywhere(self, counting_campaign, kind):
        campaign = counting_campaign(n_sites=30)
        model = DefectBehaviorModel(CMOS018)
        population = (campaign.bridge_population()
                      if kind is DefectKind.BRIDGE
                      else campaign.open_population())
        grid = [float(r) for r in np.logspace(1, 7.5, 12)]
        for cond in all_conditions():
            matrix = model.evaluate_batch(population, grid, cond)
            assert matrix.shape == (len(population), len(grid))
            for i, site in enumerate(population):
                for j, r in enumerate(grid):
                    exact = model.fails_condition(
                        site.with_resistance(r), cond)
                    assert bool(matrix[i, j]) == exact, (
                        f"{site} at {r:g} under {cond.name}")


class TestEquivalence:
    def test_table1_byte_identical_with_5x_fewer_calls(
            self, counting_campaign, exact_run):
        exact_campaign = counting_campaign()
        exact = exact_run(exact_campaign, [table1_spec()])
        batch_campaign = counting_campaign()
        batch = CampaignRunner(batch_campaign).run([table1_spec()])
        assert records_bytes(exact.records) == records_bytes(batch.records)
        # The ISSUE acceptance floor, as a call-count inequality (the
        # only counted calls left are the cross-check sample).
        assert exact_campaign.behavior.calls >= (
            5 * batch_campaign.behavior.calls)
        stats = batch.batch_stats
        assert stats is not None
        assert stats["batch_sites"] == stats["sites"]
        assert stats["fallback_sites"] == 0
        assert stats["demoted_sites"] == 0
        assert stats["crosscheck_mismatches"] == 0
        assert stats["model_invocations"] == stats[
            "crosscheck_invocations"] == batch_campaign.behavior.calls

    def test_opens_sweep_byte_identical(self, counting_campaign,
                                        exact_run):
        exact_campaign = counting_campaign()
        exact = exact_run(exact_campaign, [opens_spec()])
        batch_campaign = counting_campaign()
        batch = CampaignRunner(batch_campaign).run([opens_spec()])
        assert records_bytes(exact.records) == records_bytes(batch.records)
        assert exact_campaign.behavior.calls >= (
            5 * batch_campaign.behavior.calls)


class TestFallbacks:
    """Every capability gap degrades to the exact path, never to
    wrong records."""

    @pytest.fixture
    def run_pair(self, counting_campaign, exact_run):
        """Grid-evaluate Table 1 under ``wrap``; assert exact records."""
        def run(wrap, **evaluator_kwargs):
            exact = exact_run(counting_campaign(wrap=wrap),
                              [table1_spec()])
            campaign = counting_campaign(wrap=wrap)
            plan = CampaignRunner(campaign).plan([table1_spec()])
            evaluator = BatchEvaluator(campaign, plan, **evaluator_kwargs)
            records = [evaluator.evaluate(unit).record for unit in plan]
            assert records_bytes(exact.records) == records_bytes(records)
            return evaluator.stats.as_dict()
        return run

    def test_opaque_model_falls_back_silently(self, run_pair):
        stats = run_pair(OpaqueModel)
        assert stats["fallback_sites"] == stats["sites"]
        assert stats["batch_sites"] == 0
        assert stats["demotions"] == []

    def test_raising_hook_falls_back_with_ledger(self, run_pair):
        stats = run_pair(RaisingBatchModel)
        assert stats["fallback_sites"] == stats["sites"]
        assert stats["batch_sites"] == 0
        assert len(stats["demotions"]) == stats["groups"]
        entry = stats["demotions"][0]
        assert entry["reason"] == "probe-error"
        assert entry["stage"] == "batch"
        assert entry["site_index"] == -1
        assert "vector unit on fire" in entry["error"]

    def test_bad_shape_falls_back_with_ledger(self, run_pair):
        stats = run_pair(BadShapeBatchModel)
        assert stats["fallback_sites"] == stats["sites"]
        reasons = {d["reason"] for d in stats["demotions"]}
        assert reasons == {"bad-shape"}

    def test_lying_hook_demoted_by_full_crosscheck(self, run_pair):
        stats = run_pair(LyingBatchModel, crosscheck_fraction=1.0)
        # Checking every cell catches every lying site; the records
        # above were still byte-identical because demoted sites rerun
        # exactly per unit.
        assert stats["crosscheck_mismatches"] > 0
        assert stats["demoted_sites"] > 0
        entry = next(d for d in stats["demotions"]
                     if d["reason"] == "lying-model")
        assert entry["stage"] == "crosscheck"
        assert entry["site_index"] >= 0
        assert "batch row says" in entry["error"]

    def test_default_sparse_crosscheck_still_catches_the_liar(
            self, counting_campaign):
        # An all-True hook is wrong class-wide, so even the default 1%
        # sample trips on sampled undetectable cells and flags the
        # model.  Only the sampled sites are *corrected*, though --
        # full correction under a hostile hook needs fraction 1.0
        # (previous test); the sparse default is a tripwire, and the
        # mismatch counter is the signal operators alarm on.
        result = CampaignRunner(
            counting_campaign(wrap=LyingBatchModel)).run([table1_spec()])
        stats = result.batch_stats
        assert stats["crosscheck_mismatches"] > 0
        assert stats["demoted_sites"] == stats["crosscheck_mismatches"]


class TestChaosEquivalence:
    """Batch + faults == exact + faults: pattern, ledger and records."""

    @pytest.fixture
    def chaos_run(self, counting_campaign, exact_run):
        """Table 1 under ``injector``, grid-evaluated or exact."""
        def run(injector, exact=False):
            campaign = counting_campaign()
            campaign.behavior = ChaosBehaviorModel(campaign.behavior,
                                                   injector)
            if exact:
                return exact_run(campaign, [table1_spec()])
            return CampaignRunner(campaign).run([table1_spec()])
        return run

    def test_chaos_model_declines_the_hook(self):
        chaos = ChaosBehaviorModel(DefectBehaviorModel(CMOS018),
                                   FaultInjector())
        assert chaos.evaluate_batch is None

    def test_flaky_faults_identical_ledgers(self, chaos_run):
        exact = chaos_run(
            FaultInjector(seed=7, rates={"behavior.evaluate": 0.05}),
            exact=True)
        batch = chaos_run(
            FaultInjector(seed=7, rates={"behavior.evaluate": 0.05}))
        assert records_bytes(exact.records) == records_bytes(batch.records)
        assert exact.quarantine == batch.quarantine
        assert dataclasses.asdict(exact.retry_stats) == dataclasses.asdict(
            batch.retry_stats)

    def test_positional_faults_identical_quarantine(self, chaos_run):
        positions = {"behavior.evaluate": {0, 1, 2, 40, 41, 42}}
        exact = chaos_run(FaultInjector(positions=positions), exact=True)
        batch = chaos_run(FaultInjector(positions=positions))
        assert exact.quarantine, "the burst should exhaust retries"
        assert records_bytes(exact.records) == records_bytes(batch.records)
        assert exact.quarantine == batch.quarantine

    def test_chaos_batch_run_is_all_fallback(self, chaos_run):
        batch = chaos_run(FaultInjector())
        stats = batch.batch_stats
        assert stats["fallback_sites"] == stats["sites"]
        assert stats["batch_sites"] == 0


class TestResume:
    def test_killed_batch_campaign_resumes_byte_identical(
            self, tmp_path, counting_campaign, exact_run):
        make = counting_campaign
        baseline = exact_run(make(), [table1_spec()])
        ck = tmp_path / "ck.json"
        inj = FaultInjector(crash_positions={"io.replace": {4}})
        with pytest.raises(InjectedCrash):
            CampaignRunner(make(), checkpoint_path=ck,
                           fault_hook=inj.check).run([table1_spec()])
        resumed = CampaignRunner(make(),
                                 checkpoint_path=ck).run([table1_spec()])
        assert resumed.resumed_units > 0
        assert records_bytes(resumed.records) == records_bytes(
            baseline.records)

    def test_exact_checkpoint_resumes_under_batch(self, tmp_path,
                                                  counting_campaign,
                                                  exact_run):
        """A checkpoint the per-site path wrote resumes on the grid."""
        baseline = exact_run(counting_campaign(), [table1_spec()])
        ck = tmp_path / "ck.json"
        inj = FaultInjector(crash_positions={"io.replace": {7}})
        with pytest.raises(InjectedCrash):
            # No hook: every group takes the per-site fallback.
            CampaignRunner(counting_campaign(wrap=OpaqueModel),
                           checkpoint_path=ck, fault_hook=inj.check,
                           ).run([table1_spec()])
        resumed = CampaignRunner(counting_campaign(),
                                 checkpoint_path=ck).run([table1_spec()])
        assert resumed.resumed_units > 0
        assert records_bytes(resumed.records) == records_bytes(
            baseline.records)


class TestGuards:
    def test_unknown_strategy_rejected(self, counting_campaign):
        """No strategy knob: a campaign has one evaluator."""
        with pytest.raises(TypeError, match="strategy"):
            CampaignRunner(counting_campaign(), strategy="batch")

    def test_crosscheck_fraction_validated(self, counting_campaign):
        with pytest.raises(ValueError, match="crosscheck_fraction"):
            BatchEvaluator(counting_campaign(), [], crosscheck_fraction=1.5)

    def test_unit_deadline_must_be_positive(self, counting_campaign):
        with pytest.raises(ValueError, match="unit_deadline"):
            BatchEvaluator(counting_campaign(), [], unit_deadline=0.0)
