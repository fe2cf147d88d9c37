"""March test sequencer: from abstract notation to per-cycle operations.

The paper's experimental flow converts the family of march tests into
"analogue input stimulus" for the simulator and into tester patterns for
the ATE.  :class:`MarchSequencer` is the shared front half of both paths:
it unrolls a :class:`~repro.march.test.MarchTest` over an address space
into a deterministic stream of :class:`CycleOp` records (one per clock
cycle), resolving

* address order (up/down, with an arbitrary address-mapping permutation
  such as fast-column vs fast-row counting or MOVI bit rotation), and
* data background (solid, checkerboard, row/column stripes), turning the
  background-relative op values into physical cell values.

Downstream consumers: the functional fault simulator
(:mod:`repro.faults.simulator`), the electrical SRAM model
(:mod:`repro.memory.sram`) and the virtual tester (:mod:`repro.tester`).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from enum import Enum

from repro.march.element import AddressOrder
from repro.march.ops import Op
from repro.march.pause import PauseElement
from repro.march.test import MarchTest


class DataBackground(Enum):
    """Physical data pattern that op value 0 maps onto."""

    SOLID = "solid"
    CHECKERBOARD = "checkerboard"
    ROW_STRIPES = "row_stripes"
    COLUMN_STRIPES = "column_stripes"


@dataclass(frozen=True)
class CycleOp:
    """One memory operation at one clock cycle.

    Attributes:
        cycle: Zero-based clock-cycle index within the whole test.
        element_index: Which march element this op belongs to.
        op_index: Position of the op within its element.
        address: Logical cell address.
        op: The background-relative operation.
        value: The physical data value after background resolution (the
            bit actually written, or expected on read).
    """

    cycle: int
    element_index: int
    op_index: int
    address: int
    op: Op
    value: int


def background_bit(background: DataBackground, address: int,
                   columns: int) -> int:
    """Physical value of logical 0 at an address for a data background.

    ``columns`` is the number of cells per row in the topological layout,
    needed for the two-dimensional patterns.
    """
    row, col = divmod(address, columns)
    if background is DataBackground.SOLID:
        return 0
    if background is DataBackground.CHECKERBOARD:
        return (row + col) % 2
    if background is DataBackground.ROW_STRIPES:
        return row % 2
    return col % 2


class MarchSequencer:
    """Unrolls march tests into per-cycle operation streams.

    Args:
        n_addresses: Size of the address space.
        columns: Cells per topological row (for 2-D data backgrounds);
            defaults to the full address space (one row).
        address_map: Optional permutation applied to the linear counting
            sequence -- index in [0, n) -> physical address.  Used for
            MOVI bit rotation.  Must be a bijection on range(n_addresses).
    """

    def __init__(
        self,
        n_addresses: int,
        columns: int | None = None,
        address_map: Callable[[int], int] | None = None,
    ) -> None:
        if n_addresses <= 0:
            raise ValueError("n_addresses must be positive")
        self.n_addresses = n_addresses
        self.columns = columns if columns is not None else n_addresses
        if self.columns <= 0:
            raise ValueError("columns must be positive")
        self.address_map = address_map

    # ------------------------------------------------------------------
    def addresses(self, order: AddressOrder) -> Iterator[int]:
        """Physical address sequence for one march element."""
        seq: Iterator[int] = iter(range(self.n_addresses))
        if order is AddressOrder.DOWN:
            seq = iter(range(self.n_addresses - 1, -1, -1))
        if self.address_map is None:
            return seq
        return (self.address_map(i) for i in seq)

    def run(
        self,
        test: MarchTest,
        background: DataBackground = DataBackground.SOLID,
    ) -> Iterator[CycleOp]:
        """Yield the full cycle stream for a march test.

        The stream is deterministic: cycle indices are consecutive from 0
        and the total length is ``test.complexity * n_addresses``.
        """
        cycle = 0
        for ei, element in enumerate(test.elements):
            if isinstance(element, PauseElement):
                # Idle: time passes, no operations (retention stress).
                cycle += element.cycles
                continue
            for address in self.addresses(element.order):
                bg = background_bit(background, address, self.columns)
                for oi, op in enumerate(element.ops):
                    yield CycleOp(
                        cycle=cycle,
                        element_index=ei,
                        op_index=oi,
                        address=address,
                        op=op,
                        value=op.value ^ bg,
                    )
                    cycle += 1


def bit_rotation_map(address_bits: int, fast_bit: int) -> Callable[[int], int]:
    """Address permutation making ``fast_bit`` the fastest-toggling bit.

    This is the address transformation behind the MOVI procedure: in run
    *k* address bit *k* must be the fastest-toggling bit, exercising the
    address-transition pairs where bit *k* flips on every access -- the
    worst case for the corresponding decoder path.

    The permutation rotates the counter word left by ``fast_bit``
    positions, so counter bit 0 (which toggles on every increment) lands
    on address bit ``fast_bit``.
    """
    if address_bits <= 0:
        raise ValueError("address_bits must be positive")
    if not 0 <= fast_bit < address_bits:
        raise ValueError(f"fast_bit out of range [0, {address_bits})")
    mask = (1 << address_bits) - 1

    def mapper(index: int) -> int:
        if not 0 <= index <= mask:
            raise ValueError(f"address index {index} out of range")
        rot = fast_bit
        return ((index << rot) | (index >> (address_bits - rot))) & mask

    return mapper if fast_bit else (lambda index: index)
