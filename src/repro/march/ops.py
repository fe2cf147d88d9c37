"""March operation primitives.

A march test is a sequence of march elements; each element applies a
fixed list of operations to every address in a given order.  The
operation alphabet used by the paper's tests (MATS++, March C-, MOVI and
the 11N test) is ``{w0, w1, r0, r1}``: write-zero, write-one, read-expect-
zero, read-expect-one.

Operations are value-parameterised so data backgrounds other than
solid 0/1 (checkerboard, row/column stripes) can be expressed: the data
bit stored in an :class:`Op` is relative to the background -- the
sequencer resolves the physical value per cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class OpKind(Enum):
    """Whether an operation writes or reads the addressed cell."""

    READ = "r"
    WRITE = "w"


@dataclass(frozen=True)
class Op:
    """One read or write operation within a march element.

    Attributes:
        kind: Read or write.
        value: The data bit -- for a write, the value stored; for a read,
            the value expected.  Expressed relative to the data
            background (0 = background, 1 = inverted background).
    """

    kind: OpKind
    value: int

    def __post_init__(self) -> None:
        if self.value not in (0, 1):
            raise ValueError(f"op value must be 0 or 1, got {self.value}")

    @property
    def is_read(self) -> bool:
        return self.kind is OpKind.READ

    @property
    def is_write(self) -> bool:
        return self.kind is OpKind.WRITE

    @property
    def notation(self) -> str:
        return f"{self.kind.value}{self.value}"

    def __str__(self) -> str:
        return self.notation

    @staticmethod
    def parse(text: str) -> "Op":
        """Parse ``'r0' | 'r1' | 'w0' | 'w1'`` (case-insensitive)."""
        text = text.strip().lower()
        if len(text) != 2 or text[0] not in "rw" or text[1] not in "01":
            raise ValueError(f"cannot parse march operation: {text!r}")
        return Op(OpKind(text[0]), int(text[1]))


# Convenient singletons matching the paper's notation (R0, W1, ...).
R0 = Op(OpKind.READ, 0)
R1 = Op(OpKind.READ, 1)
W0 = Op(OpKind.WRITE, 0)
W1 = Op(OpKind.WRITE, 1)
