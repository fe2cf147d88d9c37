"""March test efficiency comparison: coverage per operation.

Test selection in production balances coverage against test time (ops
per cell = the kN factor).  This module computes the classical
efficiency view over any test set and fault-class mix: per-test coverage
scores, the coverage-per-op efficiency ratio, and the efficiency
frontier (tests not dominated in both cost and coverage) -- the
quantitative backdrop to the paper's choice of an 11N production test
over heavier algorithms.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.march.test import MarchTest

#: Default class mix for scoring (equal-weight classical set plus the
#: dynamic class the paper's soft defects motivate).
DEFAULT_CLASSES: tuple[str, ...] = ("SAF", "TF", "AF", "CFin", "CFst",
                                    "dRDF")

#: Class name -> weight in a test's score (1.0 for a class not listed).
CLASS_WEIGHTS: dict[str, float] = {}


@dataclass(frozen=True)
class TestScore:
    """Scoring of one march test.

    Attributes:
        test_name: The test.
        complexity: Ops per cell (kN factor).
        per_class: Class name -> coverage fraction.
        score: Mean coverage over the class mix.
    """

    test_name: str
    complexity: int
    per_class: dict[str, float]
    score: float

    @property
    def efficiency(self) -> float:
        """Coverage points per op -- the selection figure of merit."""
        return self.score / self.complexity if self.complexity else 0.0


def score_tests(tests: Sequence[MarchTest],
                n_cells: int = 8) -> list[TestScore]:
    """Score every test over the :data:`DEFAULT_CLASSES` mix, each
    class weighted by :data:`CLASS_WEIGHTS`."""
    # Imported here: repro.faults.coverage itself imports the march
    # package (sequencer), so a module-level import would be circular.
    from repro.faults.coverage import class_coverage

    if not tests:
        raise ValueError("need at least one test")
    classes = DEFAULT_CLASSES
    total_weight = sum(CLASS_WEIGHTS.get(c, 1.0) for c in classes)
    out = []
    for test in tests:
        per_class = {
            c: class_coverage(test, c, n_cells).coverage for c in classes
        }
        score = sum(per_class[c] * CLASS_WEIGHTS.get(c, 1.0)
                    for c in classes) / total_weight
        out.append(TestScore(test.name, test.complexity, per_class, score))
    return out


def efficiency_frontier(scores: Sequence[TestScore]) -> list[TestScore]:
    """Tests not dominated in (complexity, score).

    A test is dominated when another test covers at least as much for
    strictly fewer ops (or strictly more for the same ops).  Returned in
    complexity order -- the menu a test engineer actually chooses from.
    """
    ordered = sorted(scores, key=lambda s: (s.complexity, -s.score))
    frontier: list[TestScore] = []
    best = -1.0
    for s in ordered:
        if s.score > best + 1e-12:
            frontier.append(s)
            best = s.score
    return frontier


def render_scores(scores: Sequence[TestScore]) -> str:
    """Fixed-width efficiency table."""
    classes = list(scores[0].per_class) if scores else []
    header = (f"{'test':>12} {'kN':>4} "
              + " ".join(f"{c:>6}" for c in classes)
              + f" {'score':>6} {'eff':>6}")
    lines = [header, "-" * len(header)]
    for s in sorted(scores, key=lambda s: -s.efficiency):
        lines.append(
            f"{s.test_name:>12} {s.complexity:>4} "
            + " ".join(f"{100 * s.per_class[c]:>6.1f}" for c in classes)
            + f" {100 * s.score:>6.1f} {100 * s.efficiency:>6.2f}"
        )
    return "\n".join(lines)
