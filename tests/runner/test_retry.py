"""Tests for repro.runner.retry: a bounded attempt count per call."""

import time

import pytest

from repro.circuit.technology import CMOS018
from repro.ifa.flow import IfaCampaign
from repro.memory.geometry import MemoryGeometry
from repro.perf.batch import BatchEvaluator
from repro.runner.campaign import CampaignRunner
from repro.runner.chaos import InjectedCrash
from repro.runner.evaluate import UnitEvaluator
from repro.runner.retry import (
    RetryExhaustedError,
    RetryStats,
    check_max_attempts,
    run_with_retry,
)


class Flaky:
    """Callable failing the first ``n_failures`` times."""

    def __init__(self, n_failures, exc=RuntimeError("boom")):
        self.n_failures = n_failures
        self.exc = exc
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.n_failures:
            raise self.exc
        return "ok"


class TestAttemptValidation:
    def test_rejects_zero_attempts(self):
        with pytest.raises(ValueError, match="max_attempts"):
            check_max_attempts(0)

    @pytest.mark.parametrize("make", [
        lambda c: CampaignRunner(c, max_attempts=0),
        lambda c: BatchEvaluator(c, [], max_attempts=0),
        lambda c: UnitEvaluator(c, max_attempts=0),
    ], ids=["CampaignRunner", "BatchEvaluator", "UnitEvaluator"])
    def test_evaluators_reject_zero_attempts(self, make):
        campaign = IfaCampaign(MemoryGeometry(16, 2, 4), CMOS018,
                               n_sites=4, seed=1)
        with pytest.raises(ValueError, match="max_attempts"):
            make(campaign)


class TestRunWithRetry:
    def test_success_first_try(self):
        fn = Flaky(0)
        assert run_with_retry(fn, 3, "k") == "ok"
        assert fn.calls == 1

    def test_recovers_after_failures(self):
        fn = Flaky(2)
        stats = RetryStats()
        out = run_with_retry(fn, 3, "k", stats=stats)
        assert out == "ok" and fn.calls == 3
        assert stats.retries == 2 and stats.exhausted == 0

    def test_exhaustion_carries_history(self):
        fn = Flaky(10, exc=ValueError("nope"))
        with pytest.raises(RetryExhaustedError) as info:
            run_with_retry(fn, 3, "unit:7")
        err = info.value
        assert err.attempts == 3 and err.key == "unit:7"
        assert all(isinstance(c, ValueError) for c in err.causes)
        assert "unit:7" in str(err) and "nope" in str(err)

    def test_base_exception_never_caught(self):
        fn = Flaky(1, exc=KeyboardInterrupt())
        with pytest.raises(KeyboardInterrupt):
            run_with_retry(fn, 5, "k")
        assert fn.calls == 1

    def test_single_attempt_never_retries(self):
        fn = Flaky(1)
        stats = RetryStats()
        with pytest.raises(RetryExhaustedError) as info:
            run_with_retry(fn, 1, "k", stats=stats)
        assert fn.calls == 1 and info.value.attempts == 1
        assert (stats.calls, stats.retries, stats.exhausted) == (1, 0, 1)

    def test_stats_log_each_failed_attempt(self):
        stats = RetryStats()
        run_with_retry(Flaky(2, exc=ValueError("nope")), 3, "unit:2",
                       stats=stats)
        assert stats.errors == ["unit:2: ValueError: nope"] * 2
        assert (stats.calls, stats.retries, stats.exhausted) == (1, 2, 0)

    def test_exhaustion_chains_the_last_cause(self):
        with pytest.raises(RetryExhaustedError) as info:
            run_with_retry(Flaky(10), 2, "k")
        assert info.value.__cause__ is info.value.causes[-1]

    def test_crash_after_a_failure_propagates_unwrapped(self):
        """An Exception earns a retry; a crash on the retry is not
        caught, counted as exhaustion or wrapped."""
        outcomes = [RuntimeError("flaky"), InjectedCrash("killed")]

        def fn():
            raise outcomes.pop(0)

        stats = RetryStats()
        with pytest.raises(InjectedCrash):
            run_with_retry(fn, 5, "k", stats=stats)
        assert not outcomes
        assert (stats.retries, stats.exhausted) == (1, 0)
        assert stats.errors == ["k: RuntimeError: flaky"]

    def test_retries_never_sleep(self, monkeypatch):
        def no_sleep(seconds):
            raise AssertionError(f"retry slept {seconds}s")

        monkeypatch.setattr(time, "sleep", no_sleep)
        with pytest.raises(RetryExhaustedError):
            run_with_retry(Flaky(10), 4, "k")


class TestErrorCap:
    """RetryStats.errors is bounded: head + tail kept, middle elided."""

    CAP = RetryStats.ERRORS_HEAD + RetryStats.ERRORS_TAIL

    def test_under_cap_identical_to_plain_append(self):
        """Regression: the cap must be invisible until it triggers."""
        stats = RetryStats()
        plain = []
        for i in range(self.CAP):
            msg = f"k: RuntimeError: boom {i}"
            stats.record_error(msg)
            plain.append(msg)
        assert stats.errors == plain
        assert stats.errors_elided == 0
        assert stats.error_log() == plain

    def test_over_cap_keeps_head_and_sliding_tail(self):
        stats = RetryStats()
        for i in range(self.CAP + 5):
            stats.record_error(f"e{i}")
        assert len(stats.errors) == self.CAP
        assert stats.errors_elided == 5
        head = [f"e{i}" for i in range(RetryStats.ERRORS_HEAD)]
        tail = [f"e{i}" for i in range(RetryStats.ERRORS_HEAD + 5,
                                       self.CAP + 5)]
        assert stats.errors == head + tail

    def test_error_log_inserts_elision_marker(self):
        stats = RetryStats()
        for i in range(self.CAP + 3):
            stats.record_error(f"e{i}")
        log = stats.error_log()
        assert log[RetryStats.ERRORS_HEAD] == "... 3 error(s) elided ..."
        assert len(log) == self.CAP + 1

    def test_merge_replays_through_cap(self):
        a, b = RetryStats(), RetryStats()
        for i in range(self.CAP):
            a.record_error(f"a{i}")
        for i in range(self.CAP):
            b.record_error(f"b{i}")
        a.merge(b)
        assert len(a.errors) == self.CAP
        assert a.errors_elided == self.CAP
        # Head frozen from a, tail slid to b's newest messages.
        assert a.errors[:RetryStats.ERRORS_HEAD] == [
            f"a{i}" for i in range(RetryStats.ERRORS_HEAD)]
        assert a.errors[-1] == f"b{self.CAP - 1}"

    def test_run_with_retry_records_through_cap(self):
        stats = RetryStats()
        fn = Flaky(self.CAP + 4)
        with pytest.raises(RetryExhaustedError):
            run_with_retry(fn, self.CAP + 4, "k", stats=stats)
        assert stats.errors_elided == 4
        assert len(stats.errors) == self.CAP
