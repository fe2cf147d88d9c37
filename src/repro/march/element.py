"""March elements: an address order plus a fixed operation list.

Standard notation (van de Goor): ``⇑(r0, w1)`` applies ``r0`` then ``w1``
to every address in ascending order; ``⇓`` descends; ``⇕`` means the
order is irrelevant.  ASCII aliases ``^ v *`` (and ``up down any``) are
accepted by the parser so tests can be written in plain text.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.march.ops import Op


class AddressOrder(Enum):
    """Address sequencing direction of a march element."""

    UP = "up"
    DOWN = "down"
    ANY = "any"

    @property
    def symbol(self) -> str:
        return {"up": "⇑", "down": "⇓", "any": "⇕"}[self.value]

    @staticmethod
    def parse(symbol: str) -> "AddressOrder":
        mapping = {
            "⇑": AddressOrder.UP, "^": AddressOrder.UP, "up": AddressOrder.UP,
            "⇓": AddressOrder.DOWN, "v": AddressOrder.DOWN,
            "down": AddressOrder.DOWN,
            "⇕": AddressOrder.ANY, "*": AddressOrder.ANY,
            "any": AddressOrder.ANY,
        }
        key = symbol.strip().lower() if len(symbol.strip()) > 1 else symbol.strip()
        if key not in mapping:
            raise ValueError(f"unknown address order symbol: {symbol!r}")
        return mapping[key]


@dataclass(frozen=True)
class MarchElement:
    """One march element.

    Attributes:
        order: Address sequencing direction.
        ops: The operations applied to each address, in order.
    """

    order: AddressOrder
    ops: tuple[Op, ...]

    def __post_init__(self) -> None:
        if not self.ops:
            raise ValueError("march element must contain at least one operation")
        object.__setattr__(self, "ops", tuple(self.ops))

    def __len__(self) -> int:
        """Number of operations per address (the element's N-weight)."""
        return len(self.ops)

    @property
    def notation(self) -> str:
        body = ",".join(op.notation for op in self.ops)
        return f"{self.order.symbol}({body})"

    def __str__(self) -> str:
        return self.notation

    @property
    def reads(self) -> tuple[Op, ...]:
        return tuple(op for op in self.ops if op.is_read)

    @property
    def writes(self) -> tuple[Op, ...]:
        return tuple(op for op in self.ops if op.is_write)

    def final_write_value(self) -> int | None:
        """Value left in each visited cell, or ``None`` if the element
        performs no write (state is unchanged)."""
        for op in reversed(self.ops):
            if op.is_write:
                return op.value
        return None

    def entry_state(self) -> int | None:
        """Cell state this element expects on entry.

        Derived from the first read: an element beginning with ``r0``
        requires all cells to hold 0.  Elements that start with a write
        have no entry requirement (``None``).
        """
        first = self.ops[0]
        return first.value if first.is_read else None

    def is_consistent(self) -> bool:
        """Check internal read/write consistency.

        Walking the ops left to right, every read after a write must
        expect the last written value.  (Reads before the first write are
        entry-state requirements, not checked here.)
        """
        state: int | None = None
        for op in self.ops:
            if op.is_write:
                state = op.value
            elif state is not None and op.value != state:
                return False
        return True

    @staticmethod
    def parse(text: str) -> "MarchElement":
        """Parse notation like ``'^(r0,w1)'`` or ``'⇓(r1, w0, r0)'``."""
        text = text.strip()
        paren = text.find("(")
        if paren < 0 or not text.endswith(")"):
            raise ValueError(f"cannot parse march element: {text!r}")
        order = AddressOrder.parse(text[:paren])
        body = text[paren + 1:-1]
        ops = tuple(Op.parse(tok) for tok in body.split(",") if tok.strip())
        return MarchElement(order, ops)
