"""Fab defect statistics: resistance distributions, density and yield.

The paper's defect coverage (Table 1) weights per-resistance fault
coverage with "the distribution of the defect resistance obtained from
the fab".  We do not have Philips fab data; these parametric stand-ins
follow the published shape knowledge (e.g. [Rodriguez-Montanes et al.],
the VLV literature the paper cites): bridge resistances are dominated by
low-ohmic hard shorts with a long log-tail into the 100 kOhm range;
open/via resistances spread over a much wider range, reaching many
megohms.  All parameters are exposed so ablation benches can vary them.

Also here: defect density / Poisson yield (``Y = exp(-A * D0)``,
paper equation (2)) used by the DPM estimator and by the silicon-
experiment population generator, and :class:`ChoiceTable`, the cached
categorical draw behind the resistance and defect-site samplers.

The estimator reads only ``cdf`` and ``quantile_grid``, which are plain
``math``: the module imports numpy nowhere at module level, so
``repro serve`` never loads it.  The first draw from a distribution
builds its numpy sampler (:mod:`repro.defects.sampling`).

Exact-path equivalence: tests/defects/test_distribution.py
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

    from repro.defects.sampling import ResistanceSampler


#: ``Generator.choice``'s tolerance on ``sum(p) == 1``: the square root
#: of the float64 machine epsilon.
_CHOICE_ATOL = math.sqrt(sys.float_info.epsilon)


class ChoiceTable:
    """A categorical draw that consumes a generator as ``choice`` does.

    ``rng.choice(k, size=n, p=p)`` checks ``p``, builds ``cdf =
    p.cumsum(); cdf /= cdf[-1]`` and returns
    ``cdf.searchsorted(rng.random(n), side="right")``.  It repeats the
    check and the CDF on every call: ~25 us even for ``n == 1`` (2-CPU
    Xeon, numpy 2.4).  The table checks ``p`` and builds the CDF once;
    :meth:`draw` and :meth:`draw_one` then return the indices ``choice``
    would, from the same uniforms, and leave the generator in the same
    state.

    Args:
        p: 1-d probabilities, exactly as they would be passed to
            ``choice``.

    Raises:
        ValueError: ``p`` is empty, contains NaN or a negative entry, or
            does not sum to 1 (the errors ``choice`` raises, with its
            messages).
    """

    __slots__ = ("cdf", "_bounds")

    def __init__(self, p) -> None:
        import numpy as np

        p = np.asarray(p, dtype=float)
        if p.size == 0:
            raise ValueError("a must be a positive integer unless no "
                             "samples are taken")
        total = float(p.sum())
        if math.isnan(total):
            raise ValueError("Probabilities contain NaN")
        if (p < 0).any():
            raise ValueError("Probabilities are not non-negative")
        if abs(total - 1.0) > _CHOICE_ATOL:
            raise ValueError("Probabilities do not sum to 1. See Notes "
                             "section of docstring for more information.")
        cdf = p.cumsum()
        cdf /= cdf[-1]
        self.cdf = cdf
        self._bounds = cdf.tolist()

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` indices: ``rng.choice(len(p), size=size, p=p)``."""
        return self.cdf.searchsorted(rng.random(size), side="right")

    def draw_one(self, rng: np.random.Generator) -> int:
        """One index, from one ``rng.random()`` as ``choice`` would."""
        return bisect.bisect_right(self._bounds, rng.random())


@dataclass(frozen=True)
class LognormalComponent:
    """One lognormal mixture component.

    Attributes:
        weight: Mixture weight (normalised by the container).
        median: Median resistance in ohms.
        sigma: Log-space standard deviation.
    """

    weight: float
    median: float
    sigma: float

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise ValueError("weight must be non-negative")
        if self.median <= 0 or self.sigma <= 0:
            raise ValueError("median and sigma must be positive")


class ResistanceDistribution:
    """A lognormal-mixture resistance distribution.

    Provides the cdf and quantile grid the defect-coverage integrator
    needs, plus sampling.  The sampler, and with it numpy, is built on
    the first draw.
    """

    def __init__(self, components: list[LognormalComponent], name: str = "") -> None:
        if not components:
            raise ValueError("need at least one component")
        total = sum(c.weight for c in components)
        if total <= 0:
            raise ValueError("total weight must be positive")
        self.components = [
            LognormalComponent(c.weight / total, c.median, c.sigma)
            for c in components
        ]
        self.name = name

    @cached_property
    def _sampler(self) -> ResistanceSampler:
        """The numpy draws, built on the first :meth:`sample` or
        :meth:`sample_one`."""
        from repro.defects.sampling import ResistanceSampler

        return ResistanceSampler(self.components)

    def cdf(self, r: float) -> float:
        """P(R <= r)."""
        if r <= 0:
            return 0.0
        total = 0.0
        for c in self.components:
            z = (math.log(r) - math.log(c.median)) / c.sigma
            total += c.weight * _phi(z)
        return total

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        """Draw ``size`` resistances (ohms)
        (:meth:`~repro.defects.sampling.ResistanceSampler.sample`)."""
        return self._sampler.sample(rng, size)

    def sample_one(self, rng: np.random.Generator) -> float:
        """One resistance (ohms): ``float(self.sample(rng, 1)[0])``
        (:meth:`~repro.defects.sampling.ResistanceSampler.sample_one`),
        the per-defect sampler of the scalar population and test-plan
        draws."""
        return self._sampler.sample_one(rng)

    def quantile_grid(self, n: int) -> list[float]:
        """Log-spaced resistance grid from the 0.1 % to the 99.9 %
        quantile, used by the coverage integrator.

        The exponents follow ``np.linspace`` (``i * step + start``, the
        last one set to ``stop``); each point is ``10.0 ** y``, libm's
        ``pow``.
        """
        start = math.log10(self._quantile(0.001))
        stop = math.log10(self._quantile(0.999))
        step = (stop - start) / max(n - 1, 1)
        exponents = [i * step + start for i in range(n)]
        if n > 1:
            exponents[-1] = stop
        return [10.0 ** y for y in exponents]

    def _quantile(self, q: float) -> float:
        lo, hi = 1e-3, 1e12
        for _ in range(80):
            mid = math.sqrt(lo * hi)
            if self.cdf(mid) < q:
                lo = mid
            else:
                hi = mid
        return math.sqrt(lo * hi)


def _phi(z: float) -> float:
    """Standard normal CDF."""
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def default_bridge_distribution() -> ResistanceDistribution:
    """Bridge resistance: ~75 % hard/low-ohmic shorts (median 50 ohm)
    plus a soft-bridge tail (median 8 kOhm, broad) reaching past
    100 kOhm -- the shape behind Table 1's defect-coverage weighting and
    the dominance of the VLV-only class in the Figure 11 Venn."""
    return ResistanceDistribution(
        [
            LognormalComponent(0.75, 50.0, 1.2),
            LognormalComponent(0.25, 8.0e3, 2.0),
        ],
        name="bridge-R (fab stand-in)",
    )


def default_open_distribution() -> ResistanceDistribution:
    """Open/via resistance: broad lognormal (median 200 kOhm) with a
    resistive-via tail into the tens of megohms, matching the range the
    paper's Figure 8 sweeps (1.5 .. >4 MOhm)."""
    return ResistanceDistribution(
        [
            LognormalComponent(0.90, 1.0e5, 1.8),
            LognormalComponent(0.10, 2.0e6, 1.5),
        ],
        name="open-R (fab stand-in)",
    )


@dataclass(frozen=True)
class DefectDensity:
    """Defect density and kind mix for a process.

    Attributes:
        d0_per_cm2: Total electrically-relevant defect density
            (defects/cm^2), the D0 of ``Y = exp(-A * D0)``.
        bridge_fraction: Fraction of defects that are bridges (the paper
            notes bridges dominate at 0.18 um; opens take over at
            0.13 um and below).
    """

    d0_per_cm2: float = 0.4
    bridge_fraction: float = 0.7

    def __post_init__(self) -> None:
        if self.d0_per_cm2 <= 0:
            raise ValueError("d0_per_cm2 must be positive")
        if not 0.0 <= self.bridge_fraction <= 1.0:
            raise ValueError("bridge_fraction must be in [0, 1]")

    def defects_per_chip(self, area_um2: float) -> float:
        """Poisson mean defect count for a chip area (lambda = A * D0)."""
        if area_um2 < 0:
            raise ValueError("area must be non-negative")
        area_cm2 = area_um2 * 1e-8
        return area_cm2 * self.d0_per_cm2

    def yield_fraction(self, area_um2: float) -> float:
        """Poisson yield ``Y = exp(-A * D0)`` (paper equation (2))."""
        return math.exp(-self.defects_per_chip(area_um2))


#: Default process corner densities.  0.4 defects/cm^2 with a 2 um^2
#: 256 Kbit-instance array gives Y ~ 99.7 % per instance -- a mature
#: process, consistent with ~36 subtle escapes in 11k parts.
DEFAULT_DENSITY = DefectDensity()
