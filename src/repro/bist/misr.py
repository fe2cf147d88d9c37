"""Linear-feedback signature registers for BIST response compaction.

On-chip memory BIST cannot afford a cycle-by-cycle comparator log the
way an ATE can; production engines either compare against expected data
on the fly or compact all read responses into a MISR signature checked
once at the end.  This module supplies the second:
:class:`Misr`, a multiple-input signature register.  Each clock, the
response word is XOR-folded into the shifting state; a single faulty
read flips the final signature with aliasing probability ~2^-width.

Polynomials are given as integer bit masks including the x^width term's
implied feedback (the constant term must be 1).
"""

from __future__ import annotations

from dataclasses import dataclass

#: Primitive polynomials (maximal-length) for common widths, expressed
#: as feedback tap masks (bit i set = tap on stage i).
PRIMITIVE_TAPS: dict[int, int] = {
    8: 0b10111000,
    16: 0b1101000000001000,
    24: 0b111000010000000000000000,
    32: 0b10000000001000000000000000000011,
}


@dataclass
class Misr:
    """Multiple-input signature register.

    Args:
        width: Register width; response words wider than this are folded
            by XOR before injection.
        taps: Feedback tap mask (defaults to a primitive polynomial for
            the width when available).
    """

    width: int
    taps: int = 0

    def __post_init__(self) -> None:
        if self.width <= 1:
            raise ValueError("width must exceed 1")
        if self.taps == 0:
            try:
                self.taps = PRIMITIVE_TAPS[self.width]
            except KeyError:
                raise ValueError(
                    f"no default taps for width {self.width}; supply taps"
                ) from None
        self.state = 0

    def reset(self) -> None:
        self.state = 0

    def inject(self, word: int) -> None:
        """Clock the register with a response word."""
        mask = (1 << self.width) - 1
        folded = 0
        while word:
            folded ^= word & mask
            word >>= self.width
        feedback = bin(self.state & self.taps).count("1") & 1
        self.state = (((self.state << 1) | feedback) ^ folded) & mask

    @property
    def signature(self) -> int:
        return self.state
