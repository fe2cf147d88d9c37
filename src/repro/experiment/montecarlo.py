"""Multi-seed Monte-Carlo statistics for the silicon experiment.

A single simulated lot (like the paper's single physical lot) carries
Poisson noise: the Venn counts wander seed to seed.  This module runs
the experiment across many seeds and reports mean/min/max per Venn
region plus the stability of the *structural* claims (VLV dominance,
empty regions) -- quantifying how repeatable the paper's Figure 11
pattern is under the library's population model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.experiment.classify import StressClassifier
from repro.experiment.population import PopulationGenerator, PopulationSpec
from repro.experiment.venn import VennCounts

#: The Venn regions in reporting order.
REGIONS = ("vlv_only", "vmax_only", "atspeed_only", "vlv_vmax",
           "vlv_atspeed", "vmax_atspeed", "all_three")


@dataclass
class RegionStats:
    """Across-seed statistics for one Venn region."""

    region: str
    counts: list[int] = field(default_factory=list)

    @property
    def mean(self) -> float:
        return float(np.mean(self.counts)) if self.counts else 0.0

    @property
    def std(self) -> float:
        return float(np.std(self.counts)) if self.counts else 0.0

    @property
    def min(self) -> int:
        return min(self.counts) if self.counts else 0

    @property
    def max(self) -> int:
        return max(self.counts) if self.counts else 0


@dataclass
class MonteCarloResult:
    """Aggregated multi-seed experiment outcome.

    Attributes:
        seeds: The seeds run.
        venns: Per-seed Venn counts.
        stats: Region -> across-seed statistics.
    """

    seeds: list[int]
    venns: list[VennCounts]
    stats: dict[str, RegionStats]

    @property
    def n_runs(self) -> int:
        return len(self.seeds)

    def structural_stability(self) -> dict[str, float]:
        """Fraction of runs in which each structural claim holds."""
        n = max(self.n_runs, 1)
        vlv_dominant = sum(
            1 for v in self.venns
            if v.vlv_only >= max(v.vmax_only, v.atspeed_only)) / n
        empty_regions = sum(
            1 for v in self.venns
            if v.vmax_atspeed == 0 and v.all_three == 0) / n
        has_minor_classes = sum(
            1 for v in self.venns
            if v.vmax_only > 0 and v.atspeed_only > 0) / n
        return {
            "vlv_only_dominates": vlv_dominant,
            "vmax_atspeed_and_triple_empty": empty_regions,
            "minor_classes_present": has_minor_classes,
        }

    def render(self) -> str:
        lines = [f"{self.n_runs} lots x {len(self.venns)} runs"]
        lines.append(f"{'region':>16} {'mean':>6} {'std':>5} "
                     f"{'min':>4} {'max':>4}")
        for region in REGIONS:
            s = self.stats[region]
            lines.append(f"{region:>16} {s.mean:>6.1f} {s.std:>5.1f} "
                         f"{s.min:>4} {s.max:>4}")
        lines.append("structural stability:")
        for claim, frac in self.structural_stability().items():
            lines.append(f"  {claim}: {100 * frac:.0f} %")
        return "\n".join(lines)


def run_monte_carlo(n_runs: int = 10, n_devices: int = 11000,
                    base_seed: int = 1105,
                    classifier: StressClassifier | None = None,
                    ) -> MonteCarloResult:
    """Run the silicon experiment across ``n_runs`` seeds.

    Run ``k`` draws its population from seed ``base_seed + k``, the rule
    every published Monte-Carlo result uses.  The classifier (and hence
    the behaviour model) is shared across runs.
    """
    if n_runs <= 0:
        raise ValueError("n_runs must be positive")
    classifier = classifier if classifier is not None else StressClassifier()
    seeds = [base_seed + k for k in range(n_runs)]
    venns: list[VennCounts] = []
    for seed in seeds:
        spec = PopulationSpec(n_devices=n_devices, seed=seed)
        chips = PopulationGenerator(spec).generate()
        venns.append(VennCounts.from_experiment(classifier.classify(chips)))
    stats = {
        region: RegionStats(region, [getattr(v, region) for v in venns])
        for region in REGIONS
    }
    return MonteCarloResult(seeds, venns, stats)
