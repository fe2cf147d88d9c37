"""Work-unit decomposition of a coverage campaign.

A campaign is a triple-nested loop -- defect kind x resistance x stress
condition -- and the monolithic form of that loop is exactly what made
it fragile: one failure anywhere lost everything.  The runner instead
flattens the loop into an ordered list of :class:`WorkUnit` values.
Each unit is

* **deterministic** -- its identity (:attr:`WorkUnit.unit_id`) is a pure
  function of (kind, resistance, condition), so two plans built from
  the same sweep agree unit-by-unit;
* **independent** -- evaluating a unit touches only the (seeded) site
  population and the behaviour model, never another unit's result;
* **atomic** for checkpointing -- a unit is either fully evaluated and
  persisted, or not started; resume never sees half a unit.

The unit is one (kind, R, condition) cell rather than one defect site
because that is the granularity of the paper's database rows
(:class:`~repro.core.records.CoverageRecord`): the natural commit size,
big enough that checkpoint I/O stays negligible, small enough that a
crash loses at most one sweep cell.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.defects.models import DefectKind
from repro.stress import StressCondition


@dataclass(frozen=True)
class WorkUnit:
    """One (kind, resistance, condition) cell of the campaign sweep.

    Attributes:
        index: Position in the campaign plan (defines emission order of
            the final records; resume preserves it).
        kind: Defect kind of the sweep.
        resistance: Sweep-point resistance (ohms).
        condition: Stress condition evaluated at this cell.
    """

    index: int
    kind: DefectKind
    resistance: float
    condition: StressCondition

    def __post_init__(self) -> None:
        if self.resistance <= 0.0:
            raise ValueError(
                f"work unit resistance must be positive, "
                f"got {self.resistance!r}")

    @property
    def unit_id(self) -> str:
        """Stable identity used as the checkpoint key.

        ``repr(float)`` round-trips exactly, so two plans over the same
        grid produce byte-identical ids.
        """
        return (f"{self.kind.value}:{self.resistance!r}:"
                f"{self.condition.name}")

    def __str__(self) -> str:
        return (f"unit[{self.index}] {self.kind.value} "
                f"R={self.resistance:g} @ {self.condition.name}")


def plan_units(kind: DefectKind, resistances: Sequence[float],
               conditions: Iterable[StressCondition],
               start_index: int = 0) -> list[WorkUnit]:
    """Flatten one kind's R x condition sweep into ordered work units.

    The order matches the historical nested loop (resistance-major,
    condition-minor) so records from the runner are drop-in identical
    to records from the old monolithic ``IfaCampaign.run``.

    Raises:
        ValueError: empty ``resistances`` or ``conditions`` -- an empty
            sweep silently produced an empty database that broke the
            estimator much later; fail at the source instead.
    """
    resistances = [float(r) for r in resistances]
    conditions = list(conditions)
    if not resistances:
        raise ValueError(
            f"campaign sweep for kind={kind.value!r} has no resistances; "
            "an empty sweep would produce an empty database")
    if not conditions:
        raise ValueError(
            f"campaign sweep for kind={kind.value!r} has no stress "
            "conditions; an empty sweep would produce an empty database")
    for r in resistances:
        if r <= 0.0:
            raise ValueError(
                f"campaign resistance must be positive, got {r!r}")
    units: list[WorkUnit] = []
    index = start_index
    for r in resistances:
        for cond in conditions:
            units.append(WorkUnit(index, kind, r, cond))
            index += 1
    return units
