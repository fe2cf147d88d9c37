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

A campaign holds its injector (``IfaCampaign(injector=...)``): every
site evaluation attempt probes ``behavior.evaluate`` and every
checkpoint write probes the ``io.*`` sites.  A lot holds one too
(``StreamingExperiment(injector=...)``): its pool probes the worker
sites and its checkpoint writes the ``io.*`` sites.

Usage::

    inj = FaultInjector(seed=7, rates={"behavior.evaluate": 0.01},
                        crash_positions={"io.replace": {3}})
    campaign = IfaCampaign(geometry, tech, injector=inj)
    runner = CampaignRunner(campaign, checkpoint_path="ck.json")
"""

from __future__ import annotations

import hashlib
import os
import time
from collections import Counter
from collections.abc import Iterable, Mapping

import numpy as np

#: Worker-level chaos site: the worker process dies via ``os._exit``
#: (no cleanup, no exception -- the parent sees ``BrokenProcessPool``).
WORKER_EXIT_SITE = "worker.exit"

#: Worker-level chaos site: the worker stalls until the supervisor's
#: parent-side chunk deadline trips and its teardown terminates it.
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
        seed: Non-negative RNG seed; the stochastic stream is
            deterministic given the seed and the per-site call order.
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
            (shard, dispatch attempt) by the pool of a lot built as
            ``StreamingExperiment(injector=...)``, fires while
            ``attempt < times`` -- so a unit with ``times=1`` dies on
            its first dispatch and heals on redispatch, while a large
            ``times`` models a genuine poison unit.  Deliberately
            keyed on (unit, attempt) rather than call order so the
            decision is identical in every process that probes it.

    Each site keeps an independent RNG substream (seeded from
    ``seed`` + the site label) so adding probes at one site never
    perturbs the fault pattern at another.
    """

    def __init__(self, seed: int = 0,
                 rates: Mapping[str, float] | None = None,
                 positions: Mapping[str, Iterable[int]] | None = None,
                 crash_positions: Mapping[str, Iterable[int]] | None = None,
                 worker_faults: Mapping[str, Mapping[str, int]] | None = None,
                 ) -> None:
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
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
        self.calls: Counter[str] = Counter()
        self.injected: Counter[str] = Counter()
        self._rngs: dict[str, np.random.Generator] = {}

    # ------------------------------------------------------------------
    def _rng(self, site: str) -> np.random.Generator:
        if site not in self._rngs:
            # Stable site key: str.__hash__ is salted per process, which
            # would desynchronise "same seed, same faults" across runs.
            site_key = int.from_bytes(
                hashlib.sha256(site.encode("utf-8")).digest()[:4], "big")
            self._rngs[site] = np.random.default_rng(
                np.random.SeedSequence(entropy=self.seed,
                                       spawn_key=(site_key,)))
        return self._rngs[site]

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
                *is* the failure (``os._exit``, or a stall that lasts
                until the supervisor terminates the worker).  False
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
            while True:  # until the supervisor's teardown terminates us
                time.sleep(3600.0)

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, dict[str, int]]:
        """Per-site call and injection counters (for reports/tests)."""
        return {
            site: {"calls": self.calls[site],
                   "injected": self.injected[site]}
            for site in sorted(set(self.calls) | set(self.injected))
        }

