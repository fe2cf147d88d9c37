"""Venn-diagram accounting of interesting devices (paper Figure 11).

The paper's headline experimental result: out of ~11k parts, 36 passed
the standard test but failed under stress -- 27 only at VLV, 3 only at
Vmax, 3 only at-speed, 2 at VLV+Vmax, 1 at VLV+at-speed.
:class:`VennCounts` holds the seven regions of the three-set diagram,
renders an ASCII summary, and compares populations against the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiment.classify import ExperimentAccumulator

_REGIONS: tuple[frozenset[str], ...] = (
    frozenset({"VLV"}),
    frozenset({"Vmax"}),
    frozenset({"at-speed"}),
    frozenset({"VLV", "Vmax"}),
    frozenset({"VLV", "at-speed"}),
    frozenset({"Vmax", "at-speed"}),
    frozenset({"VLV", "Vmax", "at-speed"}),
)

#: Exact stress-fail set -> :class:`VennCounts` field name (the keys of
#: :attr:`~repro.experiment.classify.ExperimentAccumulator.class_counts`).
REGION_FIELDS: dict[frozenset[str], str] = {
    frozenset({"VLV"}): "vlv_only",
    frozenset({"Vmax"}): "vmax_only",
    frozenset({"at-speed"}): "atspeed_only",
    frozenset({"VLV", "Vmax"}): "vlv_vmax",
    frozenset({"VLV", "at-speed"}): "vlv_atspeed",
    frozenset({"Vmax", "at-speed"}): "vmax_atspeed",
    frozenset({"VLV", "Vmax", "at-speed"}): "all_three",
}


@dataclass(frozen=True)
class VennCounts:
    """The seven regions of the VLV/Vmax/at-speed Venn diagram.

    Attributes mirror the paper's Figure 11 labels.
    """

    vlv_only: int = 0
    vmax_only: int = 0
    atspeed_only: int = 0
    vlv_vmax: int = 0
    vlv_atspeed: int = 0
    vmax_atspeed: int = 0
    all_three: int = 0

    @property
    def total(self) -> int:
        return (self.vlv_only + self.vmax_only + self.atspeed_only
                + self.vlv_vmax + self.vlv_atspeed + self.vmax_atspeed
                + self.all_three)

    @property
    def vlv_total(self) -> int:
        """All parts failing VLV (the paper's key stress condition)."""
        return (self.vlv_only + self.vlv_vmax + self.vlv_atspeed
                + self.all_three)

    @property
    def vmax_total(self) -> int:
        return (self.vmax_only + self.vlv_vmax + self.vmax_atspeed
                + self.all_three)

    @property
    def atspeed_total(self) -> int:
        return (self.atspeed_only + self.vlv_atspeed + self.vmax_atspeed
                + self.all_three)

    def as_dict(self) -> dict[str, int]:
        return {
            "VLV only": self.vlv_only,
            "Vmax only": self.vmax_only,
            "at-speed only": self.atspeed_only,
            "VLV & Vmax": self.vlv_vmax,
            "VLV & at-speed": self.vlv_atspeed,
            "Vmax & at-speed": self.vmax_atspeed,
            "all three": self.all_three,
        }

    def __add__(self, other: "VennCounts") -> "VennCounts":
        """Field-wise sum: combine two disjoint sub-population Venns.

        Addition is commutative and associative with ``VennCounts()``
        as identity (property-tested), which makes ``VennCounts`` a
        valid map-reduce accumulator: shard-local Venns merge into the
        lot-level Venn in any order.
        """
        if not isinstance(other, VennCounts):
            return NotImplemented
        return VennCounts(
            vlv_only=self.vlv_only + other.vlv_only,
            vmax_only=self.vmax_only + other.vmax_only,
            atspeed_only=self.atspeed_only + other.atspeed_only,
            vlv_vmax=self.vlv_vmax + other.vlv_vmax,
            vlv_atspeed=self.vlv_atspeed + other.vlv_atspeed,
            vmax_atspeed=self.vmax_atspeed + other.vmax_atspeed,
            all_three=self.all_three + other.all_three,
        )

    def render(self) -> str:
        """ASCII Venn summary."""
        lines = [f"interesting devices: {self.total}"]
        for label, count in self.as_dict().items():
            lines.append(f"  {label:>16}: {count}")
        lines.append(
            f"  per-condition totals: VLV={self.vlv_total} "
            f"Vmax={self.vmax_total} at-speed={self.atspeed_total}"
        )
        return "\n".join(lines)

    @classmethod
    def from_class_counts(
            cls, counts: dict[frozenset[str], int]) -> "VennCounts":
        """Build from exact stress-fail-set counts (the reduce input).

        Raises:
            ValueError: a key is not one of the seven Venn regions.
        """
        unknown = sorted(
            "+".join(sorted(key)) for key in counts
            if key not in REGION_FIELDS)
        if unknown:
            raise ValueError(
                f"unknown Venn region(s): {', '.join(unknown)}")
        fields = {REGION_FIELDS[key]: n for key, n in counts.items()}
        return cls(**fields)

    @classmethod
    def from_experiment(cls, acc: ExperimentAccumulator) -> "VennCounts":
        """The Venn regions of a classified lot's interesting devices."""
        return cls.from_class_counts(acc.class_counts)


#: The paper's Figure 11 numbers (out of ~11k devices).
PAPER_VENN = VennCounts(
    vlv_only=27,
    vmax_only=3,
    atspeed_only=3,
    vlv_vmax=2,
    vlv_atspeed=1,
    vmax_atspeed=0,
    all_three=0,
)
