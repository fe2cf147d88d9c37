"""Tests for repro.runner.chaos: deterministic fault injection."""

import pytest

from repro.circuit.technology import CMOS018
from repro.defects.behavior import DefectBehaviorModel
from repro.defects.models import BridgeSite, bridge
from repro.runner.chaos import (
    WORKER_EXIT_SITE,
    WORKER_HANG_SITE,
    ChaosBehaviorModel,
    FaultInjector,
    InjectedCrash,
    InjectedFault,
)
from repro.stress import production_conditions


def fault_pattern(injector, site, n_calls):
    """Which of n_calls at ``site`` raise, as a bool list."""
    pattern = []
    for _ in range(n_calls):
        try:
            injector.check(site)
            pattern.append(False)
        except InjectedFault:
            pattern.append(True)
    return pattern


class TestDeterminism:
    def test_same_seed_same_faults(self):
        a = FaultInjector(seed=42, rates={"s": 0.3})
        b = FaultInjector(seed=42, rates={"s": 0.3})
        assert fault_pattern(a, "s", 500) == fault_pattern(b, "s", 500)

    def test_different_seed_different_faults(self):
        a = FaultInjector(seed=1, rates={"s": 0.3})
        b = FaultInjector(seed=2, rates={"s": 0.3})
        assert fault_pattern(a, "s", 500) != fault_pattern(b, "s", 500)

    def test_sites_have_independent_streams(self):
        """Probing one site never perturbs another site's pattern."""
        a = FaultInjector(seed=7, rates={"x": 0.3, "y": 0.3})
        b = FaultInjector(seed=7, rates={"x": 0.3, "y": 0.3})
        fault_pattern(a, "y", 100)  # interleave extra traffic on y
        assert fault_pattern(a, "x", 200) == fault_pattern(b, "x", 200)


class TestConfiguration:
    def test_zero_rate_never_fires(self):
        inj = FaultInjector(seed=0, rates={"s": 0.0})
        assert fault_pattern(inj, "s", 200) == [False] * 200

    def test_rate_one_always_fires(self):
        inj = FaultInjector(seed=0, rates={"s": 1.0})
        assert fault_pattern(inj, "s", 50) == [True] * 50

    def test_negative_seed_rejected(self):
        """Rejected up front: a negative seed would otherwise raise
        inside the first ``check``, where the runner retries and
        quarantines it as a model failure."""
        with pytest.raises(ValueError, match="seed must be non-negative"):
            FaultInjector(seed=-1, rates={"behavior.evaluate": 0.1})

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError, match="rate"):
            FaultInjector(rates={"s": 1.5})

    def test_positions_fire_exactly(self):
        inj = FaultInjector(positions={"s": {1, 3}})
        assert fault_pattern(inj, "s", 5) == [False, True, False, True,
                                              False]

    def test_unconfigured_site_is_silent(self):
        inj = FaultInjector(seed=0, rates={"other": 1.0})
        assert fault_pattern(inj, "s", 20) == [False] * 20

    def test_crash_positions_raise_base_exception(self):
        inj = FaultInjector(crash_positions={"s": {2}})
        inj.check("s")
        inj.check("s")
        with pytest.raises(InjectedCrash):
            inj.check("s")
        # InjectedCrash must NOT be an Exception: recovery code catching
        # Exception would otherwise swallow the simulated kill -9.
        assert not issubclass(InjectedCrash, Exception)

    def test_stats_accounting(self):
        inj = FaultInjector(positions={"s": {0}})
        fault_pattern(inj, "s", 3)
        assert inj.stats() == {"s": {"calls": 3, "injected": 1}}


class TestWorkerFaults:
    def test_unknown_worker_site_rejected(self):
        with pytest.raises(ValueError, match="worker-fault site"):
            FaultInjector(worker_faults={"worker.meteor": {"u": 1}})

    def test_invalid_hang_seconds_rejected(self):
        with pytest.raises(ValueError, match="hang_seconds"):
            FaultInjector(hang_seconds=0.0)

    def test_parent_probe_raises_instead_of_dying(self):
        """in_worker=False converts the death into InjectedCrash."""
        inj = FaultInjector(worker_faults={WORKER_EXIT_SITE: {"u": 2}})
        for attempt in (0, 1):
            with pytest.raises(InjectedCrash, match="worker.exit"):
                inj.check_worker("u", attempt, in_worker=False)
        # The budget is spent: attempt 2 is clean, as is any other unit.
        inj.check_worker("u", 2, in_worker=False)
        inj.check_worker("other", 0, in_worker=False)
        assert inj.stats()[WORKER_EXIT_SITE] == {
            "calls": 3, "injected": 2}

    def test_hang_site_parent_probe(self):
        inj = FaultInjector(worker_faults={WORKER_HANG_SITE: {"u": 1}})
        with pytest.raises(InjectedCrash, match="worker.hang"):
            inj.check_worker("u", 0, in_worker=False)

    def test_decision_is_pure_function_of_unit_and_attempt(self):
        """Two injectors (parent/worker split) always agree."""
        table = {WORKER_EXIT_SITE: {"a": 1, "b": 3}}
        a = FaultInjector(worker_faults=table)
        b = FaultInjector(worker_faults=table)

        def fires(inj, unit, attempt):
            try:
                inj.check_worker(unit, attempt, in_worker=False)
                return False
            except InjectedCrash:
                return True

        for unit in ("a", "b", "c"):
            for attempt in range(5):
                assert fires(a, unit, attempt) == fires(b, unit, attempt)


class TestChaosBehaviorModel:
    def test_delegates_and_injects(self):
        model = DefectBehaviorModel(CMOS018)
        inj = FaultInjector(positions={"behavior.evaluate": {1}})
        chaos = ChaosBehaviorModel(model, inj)
        defect = bridge(BridgeSite.CELL_NODE_RAIL, 1e3)
        cond = production_conditions(CMOS018)["VLV"]
        assert chaos.fails_condition(defect, cond) == model.fails_condition(
            defect, cond)
        with pytest.raises(InjectedFault):
            chaos.fails_condition(defect, cond)

    def test_proxies_other_attributes(self):
        model = DefectBehaviorModel(CMOS018)
        chaos = ChaosBehaviorModel(model, FaultInjector())
        assert chaos.tech is model.tech
        assert chaos.params is model.params
