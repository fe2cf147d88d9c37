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

Exact-path equivalence: tests/defects/test_distribution.py
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np


#: ``Generator.choice``'s tolerance on ``sum(p) == 1``.
_CHOICE_ATOL = math.sqrt(np.finfo(np.float64).eps)


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

    Provides pdf/cdf/sampling plus the band-probability queries the
    defect-coverage integrator needs.
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
        self._choice = ChoiceTable([c.weight for c in self.components])
        self._log_params = [(math.log(c.median), c.sigma)
                            for c in self.components]

    def cdf(self, r: float) -> float:
        """P(R <= r)."""
        if r <= 0:
            return 0.0
        total = 0.0
        for c in self.components:
            z = (math.log(r) - math.log(c.median)) / c.sigma
            total += c.weight * _phi(z)
        return total

    def pdf(self, r: float) -> float:
        if r <= 0:
            return 0.0
        total = 0.0
        for c in self.components:
            z = (math.log(r) - math.log(c.median)) / c.sigma
            total += (
                c.weight
                * math.exp(-0.5 * z * z)
                / (r * c.sigma * math.sqrt(2.0 * math.pi))
            )
        return total

    def band_probability(self, r_lo: float, r_hi: float) -> float:
        """P(r_lo < R <= r_hi)."""
        if r_hi < r_lo:
            raise ValueError("r_hi must be >= r_lo")
        return self.cdf(r_hi) - self.cdf(r_lo)

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        """Draw resistances (ohms).

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
        :meth:`sample`, without building its arrays -- the per-defect
        sampler of the scalar population and test-plan draws.
        """
        mu, sigma = self._log_params[self._choice.draw_one(rng)]
        return float(np.exp(rng.normal(mu, sigma)))

    def quantile_grid(self, n: int = 64, lo_q: float = 0.001,
                      hi_q: float = 0.999) -> np.ndarray:
        """Log-spaced resistance grid covering the distribution's bulk,
        used by the coverage integrator."""
        lo = self._quantile(lo_q)
        hi = self._quantile(hi_q)
        return np.logspace(math.log10(lo), math.log10(hi), n)

    def _quantile(self, q: float) -> float:
        lo, hi = 1e-3, 1e12
        for _ in range(80):
            mid = math.sqrt(lo * hi)
            if self.cdf(mid) < q:
                lo = mid
            else:
                hi = mid
        return math.sqrt(lo * hi)


def sample_resistances_reference(distribution: ResistanceDistribution,
                                 rng: np.random.Generator,
                                 size: int = 1) -> np.ndarray:
    """The per-call ``choice(p=...)`` resistance draw -- the oracle of
    :meth:`ResistanceDistribution.sample` and
    :meth:`~ResistanceDistribution.sample_one`.

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
