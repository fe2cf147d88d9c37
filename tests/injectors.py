"""Fault injectors that also fault at fixed call positions.

:class:`repro.runner.chaos.FaultInjector` takes its seeded rates and
worker faults as arguments; the deterministic placements are its
``positions`` and ``crash_positions`` attributes, set here.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from typing import Any

from repro.runner.chaos import FaultInjector


def scheduled_injector(
        positions: Mapping[str, Iterable[int]] | None = None,
        crash_positions: Mapping[str, Iterable[int]] | None = None,
        **kwargs: Any) -> FaultInjector:
    """A :class:`FaultInjector` raising :class:`InjectedFault` at the
    ``positions`` and :class:`InjectedCrash` at the ``crash_positions``
    (site label -> 0-based call indices)."""
    injector = FaultInjector(**kwargs)
    injector.positions = {s: set(p) for s, p in (positions or {}).items()}
    injector.crash_positions = {
        s: set(p) for s, p in (crash_positions or {}).items()}
    return injector
