"""Deterministic fault injection: rehearse every failure the runner heals.

The resilient runner's recovery paths (retry, quarantine, checkpoint
recovery) are worthless untested, and real failures are rare and
unrepeatable.  :class:`FaultInjector` makes them cheap and exactly
reproducible: code under test calls :meth:`FaultInjector.check` at
labelled *sites* ("behavior.evaluate", "io.write", ...) and the injector
decides -- from a seeded RNG and/or an explicit position list -- whether
that particular call raises.  Same seed, same configuration, same call
sequence => the same faults, every run; this is what lets the test suite
assert byte-identical resume after a mid-campaign crash.

Two failure flavours mirror the two things that go wrong in a long
campaign:

* :class:`InjectedFault` (an ``Exception``) -- a *transient or per-site*
  error, e.g. a behavioural evaluation blowing up on one pathological
  site.  The runner retries it and, if persistent, quarantines the site.
* :class:`InjectedCrash` (a ``BaseException``) -- the process dying:
  OOM-kill, power loss, ``kill -9``.  Nothing may catch it short of the
  test harness; surviving it is the checkpoint's job.

Usage::

    inj = FaultInjector(seed=7, rates={"behavior.evaluate": 0.01},
                        crash_positions={"io.replace": {3}})
    campaign.behavior = ChaosBehaviorModel(campaign.behavior, inj)
    runner = CampaignRunner(campaign, checkpoint_path="ck.json",
                            fault_hook=inj.check)
"""

from __future__ import annotations

import hashlib
import os
import time
from collections import Counter
from collections.abc import Callable, Iterable, Mapping
from typing import Any

import numpy as np

from repro.defects.models import Defect
from repro.stress import StressCondition

#: Worker-level chaos site: the worker process dies via ``os._exit``
#: (no cleanup, no exception -- the parent sees ``BrokenProcessPool``).
WORKER_EXIT_SITE = "worker.exit"

#: Worker-level chaos site: the worker stalls in ``time.sleep`` long
#: enough to trip the supervisor's parent-side chunk deadline.
WORKER_HANG_SITE = "worker.hang"

_WORKER_SITES = (WORKER_EXIT_SITE, WORKER_HANG_SITE)

#: Exit status of an injected ``worker.exit`` death (recognisable in
#: process tables and soak logs).
WORKER_EXIT_STATUS = 17


class InjectedFault(RuntimeError):
    """A deliberately injected *recoverable* failure (retry/quarantine)."""


class InjectedCrash(BaseException):
    """A deliberately injected process death.

    Derives from ``BaseException`` so no ``except Exception`` recovery
    path can swallow it -- exactly like SIGKILL, which the production
    code never sees at all.
    """


class FaultInjector:
    """Seeded, position-addressable fault source.

    Args:
        seed: RNG seed; the stochastic stream is deterministic given
            the seed and the per-site call order.
        rates: Map of site label -> probability that a call at that
            site raises :class:`InjectedFault`.
        positions: Map of site label -> 0-based call indices that raise
            :class:`InjectedFault` unconditionally (deterministic
            placement, independent of the RNG).
        crash_positions: Like ``positions`` but raising
            :class:`InjectedCrash` -- the simulated ``kill -9``.
        worker_faults: Worker-level chaos: map of site label
            (:data:`WORKER_EXIT_SITE` or :data:`WORKER_HANG_SITE`) ->
            {unit id -> times}.  :meth:`check_worker`, probed once per
            (shard, dispatch attempt) by the lot's pool, fires while
            ``attempt < times`` -- so a unit with ``times=1`` dies on
            its first dispatch and heals on redispatch, while a large
            ``times`` models a genuine poison unit.  Deliberately
            keyed on (unit, attempt) rather than call order so the
            decision is identical in every process that probes it.
        hang_seconds: Stall duration of an injected ``worker.hang``
            (must comfortably exceed the supervisor's chunk deadline).
        scope_by_unit: Key the per-site RNG substreams by
            (site, current unit) instead of site alone.  Rate-based
            faults then become a pure function of (seed, site, unit,
            per-unit call order) -- the property that makes serial and
            multi-worker chaos runs draw identical fault patterns.
            Off by default: global call-order streams keep existing
            position-based configurations meaningful.

    Each site keeps an independent RNG substream (seeded from
    ``seed`` + the site label) so adding probes at one site never
    perturbs the fault pattern at another.
    """

    def __init__(self, seed: int = 0,
                 rates: Mapping[str, float] | None = None,
                 positions: Mapping[str, Iterable[int]] | None = None,
                 crash_positions: Mapping[str, Iterable[int]] | None = None,
                 worker_faults: Mapping[str, Mapping[str, int]] | None = None,
                 hang_seconds: float = 60.0,
                 scope_by_unit: bool = False,
                 ) -> None:
        self.seed = seed
        self.rates = dict(rates or {})
        for site, rate in self.rates.items():
            if not 0.0 <= rate <= 1.0:
                raise ValueError(
                    f"rate for site {site!r} must be in [0, 1], got {rate}")
        self.positions = {s: set(p) for s, p in (positions or {}).items()}
        self.crash_positions = {
            s: set(p) for s, p in (crash_positions or {}).items()}
        self.worker_faults = {
            site: dict(table)
            for site, table in (worker_faults or {}).items()}
        for site in self.worker_faults:
            if site not in _WORKER_SITES:
                raise ValueError(
                    f"unknown worker-fault site {site!r}; choices: "
                    f"{', '.join(_WORKER_SITES)}")
        if hang_seconds <= 0:
            raise ValueError("hang_seconds must be positive")
        self.hang_seconds = hang_seconds
        self.scope_by_unit = scope_by_unit
        self.calls: Counter[str] = Counter()
        self.injected: Counter[str] = Counter()
        self._rngs: dict[tuple[str, str | None],
                         np.random.Generator] = {}
        self._scope: str | None = None

    # ------------------------------------------------------------------
    def _rng(self, site: str) -> np.random.Generator:
        key = (site, self._scope)
        if key not in self._rngs:
            # Stable site key: str.__hash__ is salted per process, which
            # would desynchronise "same seed, same faults" across runs.
            site_key = int.from_bytes(
                hashlib.sha256(site.encode("utf-8")).digest()[:4], "big")
            spawn_key: tuple[int, ...] = (site_key,)
            if self._scope is not None:
                scope_key = int.from_bytes(
                    hashlib.sha256(
                        self._scope.encode("utf-8")).digest()[:4], "big")
                spawn_key = (site_key, scope_key)
            self._rngs[key] = np.random.default_rng(
                np.random.SeedSequence(entropy=self.seed,
                                       spawn_key=spawn_key))
        return self._rngs[key]

    def begin_unit(self, unit_id: str) -> None:
        """Scope subsequent RNG draws to ``unit_id``.

        Called by :func:`unit_injections` as every unit starts.  A
        no-op unless ``scope_by_unit`` was requested, so default
        configurations keep their global call-order streams.
        """
        if self.scope_by_unit:
            self._scope = unit_id

    def check(self, site: str) -> None:
        """Account one call at ``site``; raise if a fault is scheduled.

        Raises:
            InjectedCrash: the call index is in ``crash_positions``.
            InjectedFault: the call index is in ``positions``, or the
                site's RNG draw lands under its configured rate.
        """
        index = self.calls[site]
        self.calls[site] += 1
        if index in self.crash_positions.get(site, ()):
            self.injected[site] += 1
            raise InjectedCrash(f"injected crash at {site}[{index}]")
        hit = index in self.positions.get(site, ())
        rate = self.rates.get(site, 0.0)
        if rate > 0.0 and float(self._rng(site).random()) < rate:
            hit = True
        if hit:
            self.injected[site] += 1
            raise InjectedFault(f"injected fault at {site}[{index}]")

    def check_worker(self, unit_key: str, attempt: int,
                     in_worker: bool = True) -> None:
        """Probe the worker-level chaos sites for one dispatched unit.

        Called once per (unit, dispatch attempt) -- by the pool worker
        just before evaluating the unit, and by the supervisor before a
        serial in-parent retry.  The decision is a pure function of
        (unit, attempt, configured budget), so every process that
        probes the same dispatch agrees without any state exchange.

        Args:
            unit_key: The unit's stable id.
            attempt: 0-based dispatch attempt of the unit's chunk.
            in_worker: True inside a pool worker -- the injection then
                *is* the failure (``os._exit`` / a long sleep).  False
                in the parent, where dying for real would kill the
                campaign; the injection surfaces as
                :class:`InjectedCrash` instead, which the supervisor's
                poison-unit guard quarantines.

        Raises:
            InjectedCrash: a fault is scheduled and ``in_worker`` is
                False.
        """
        for site in _WORKER_SITES:
            times = self.worker_faults.get(site, {}).get(unit_key)
            if times is None:
                continue
            self.calls[site] += 1
            if attempt >= times:
                continue
            self.injected[site] += 1
            if not in_worker:
                raise InjectedCrash(
                    f"injected {site} for {unit_key} still firing on "
                    f"attempt {attempt} (in-parent retry)")
            if site == WORKER_EXIT_SITE:
                os._exit(WORKER_EXIT_STATUS)
            time.sleep(self.hang_seconds)

    # ------------------------------------------------------------------
    # Counters (merged back from workers -- see docs/robustness.md)
    # ------------------------------------------------------------------
    def counter_snapshot(self) -> dict[str, dict[str, int]]:
        """Copy of the call/injection counters, for later deltas."""
        return {"calls": dict(self.calls),
                "injected": dict(self.injected)}

    def counters_since(self, snapshot: dict[str, dict[str, int]],
                       ) -> dict[str, dict[str, int]]:
        """Per-site counter growth since ``snapshot``.

        Returns:
            ``{site: {"calls": n, "injected": m}}`` restricted to
            sites that moved -- the compact delta a
            :class:`~repro.runner.evaluate.UnitOutcome` carries back
            from a worker process.
        """
        delta: dict[str, dict[str, int]] = {}
        for site in sorted(set(self.calls) | set(self.injected)):
            calls = self.calls[site] - snapshot["calls"].get(site, 0)
            injected = (self.injected[site]
                        - snapshot["injected"].get(site, 0))
            if calls or injected:
                delta[site] = {"calls": calls, "injected": injected}
        return delta

    def merge_counts(self, delta: Mapping[str, Mapping[str, int]]) -> None:
        """Fold a worker's per-unit counter delta into this injector.

        The pool supervisor calls this at the in-order effect point
        for every outcome a worker sends back; without it the
        fork-copied worker counters are lost and :meth:`stats`
        undercounts under ``workers > 1``.
        """
        for site, counts in delta.items():
            self.calls[site] += counts.get("calls", 0)
            self.injected[site] += counts.get("injected", 0)

    def stats(self) -> dict[str, dict[str, int]]:
        """Per-site call and injection counters (for reports/tests)."""
        return {
            site: {"calls": self.calls[site],
                   "injected": self.injected[site]}
            for site in sorted(set(self.calls) | set(self.injected))
        }


def unit_injections(behavior: Any, unit_id: str,
                    ) -> Callable[[], dict[str, dict[str, int]]]:
    """Scope a behaviour model's injector to one unit as it starts.

    Returns a reader of the injector's counter growth since, which the
    unit's :class:`~repro.runner.evaluate.UnitOutcome` carries across
    the process boundary; it reads ``{}`` outside chaos runs.
    """
    injector = getattr(behavior, "injector", None)
    if injector is None:
        return dict
    injector.begin_unit(unit_id)
    snapshot = injector.counter_snapshot()
    return lambda: injector.counters_since(snapshot)


class ChaosBehaviorModel:
    """Behaviour-model proxy that fires the injector before evaluating.

    Wraps any object with the :class:`~repro.defects.behavior.
    DefectBehaviorModel` duck interface and probes both scalar entry
    points: ``fails_condition`` (what a campaign asks) and
    ``manifestation`` (what the virtual tester asks when the lot
    classifies a chip).  Site label: ``behavior.evaluate``.

    Declines the vectorised ``evaluate_batch`` and
    ``evaluate_elements`` capabilities even when the wrapped model
    offers them: a kernel call answers a whole site x R grid (or a
    whole defect population) without touching ``fails_condition``,
    which would skip the injector's per-site probes and change the
    fault pattern.  The class attributes below shadow ``__getattr__``
    delegation, so batch evaluators and the lot classifier see
    ``None`` and take the all-scalar fallback -- chaos campaigns probe
    site-for-site exactly like the per-site oracle.
    """

    SITE = "behavior.evaluate"
    evaluate_batch = None
    evaluate_elements = None

    def __init__(self, inner, injector: FaultInjector) -> None:
        self.inner = inner
        self.injector = injector

    def fails_condition(self, defect: Defect,
                        condition: StressCondition) -> bool:
        """Probe the injector, then delegate to the wrapped model."""
        self.injector.check(self.SITE)
        return self.inner.fails_condition(defect, condition)

    def manifestation(self, defect: Defect, condition: StressCondition):
        """Probe the injector, then delegate the full evaluation."""
        self.injector.check(self.SITE)
        return self.inner.manifestation(defect, condition)

    def __getattr__(self, name: str):
        # Guard against the unpickling window where __dict__ is still
        # empty: delegating "inner" then would recurse forever (and kill
        # pool workers receiving a pickled chaos-wrapped campaign).
        if "inner" not in self.__dict__:
            raise AttributeError(name)
        return getattr(self.inner, name)
