"""numpy draws from a lognormal-mixture resistance distribution.

:class:`ResistanceSampler` is what
:meth:`~repro.defects.distribution.ResistanceDistribution.sample` and
:meth:`~repro.defects.distribution.ResistanceDistribution.sample_one`
run; the distribution builds one on its first draw, so only a process
that draws resistances imports numpy for them.
:func:`sample_resistances_reference` is their oracle.

Exact-path equivalence: tests/defects/test_distribution.py
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.defects.distribution import ChoiceTable, LognormalComponent

if TYPE_CHECKING:
    from repro.defects.distribution import ResistanceDistribution


class ResistanceSampler:
    """Resistance draws from normalised mixture components.

    Args:
        components: The mixture, weights summing to 1 (a
            :class:`~repro.defects.distribution.ResistanceDistribution`'s
            ``components``).
    """

    __slots__ = ("_choice", "_log_params")

    def __init__(self, components: Sequence[LognormalComponent]) -> None:
        self._choice = ChoiceTable([c.weight for c in components])
        self._log_params = [(math.log(c.median), c.sigma)
                            for c in components]

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` resistances (ohms).

        One uniform per draw picks the component, then one normal block
        per component in component order: the draw sequence of
        :func:`sample_resistances_reference`, without its per-call
        ``choice(p=...)``.
        """
        choice = self._choice.draw(rng, size)
        out = np.empty(size)
        for i, (mu, sigma) in enumerate(self._log_params):
            mask = choice == i
            n = int(mask.sum())
            if n:
                out[mask] = np.exp(rng.normal(mu, sigma, size=n))
        return out

    def sample_one(self, rng: np.random.Generator) -> float:
        """One resistance (ohms): ``float(self.sample(rng, 1)[0])``.

        The same uniform, normal and ``np.exp`` as a size-1
        :meth:`sample`, without building its arrays.
        """
        mu, sigma = self._log_params[self._choice.draw_one(rng)]
        return float(np.exp(rng.normal(mu, sigma)))


def sample_resistances_reference(distribution: ResistanceDistribution,
                                 rng: np.random.Generator,
                                 size: int) -> np.ndarray:
    """The per-call ``choice(p=...)`` resistance draw -- the oracle of
    :meth:`ResistanceSampler.sample` and
    :meth:`~ResistanceSampler.sample_one`.

    The component weights go through ``rng.choice`` on every call.
    ``sample`` and ``sample_one`` must return the same values from the
    same generator state; no production path calls this.
    """
    weights = np.array([c.weight for c in distribution.components])
    choice = rng.choice(len(distribution.components), size=size, p=weights)
    out = np.empty(size)
    for i, c in enumerate(distribution.components):
        mask = choice == i
        n = int(mask.sum())
        if n:
            out[mask] = np.exp(
                rng.normal(math.log(c.median), c.sigma, size=n)
            )
    return out
