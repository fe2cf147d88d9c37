"""Memory geometry: the four design parameters of the paper's estimator.

The paper's Fault Coverage Estimator takes exactly four user inputs:
``#X rows``, ``#Y columns``, ``#B bits per word`` and the optional number
of ``Z blocks`` (Section 3).  :class:`MemoryGeometry` is that parameter
block plus the derived quantities the rest of the library needs:
address-space size, logical-to-topological mapping, and the physical
array dimensions that drive critical-area scaling in the IFA flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class MemoryGeometry:
    """SRAM organisation.

    The physical bit array of one block is ``rows`` word lines by
    ``columns * bits_per_word`` bit lines: each word occupies
    ``bits_per_word`` cells spread over the column mux groups, as in a
    standard SRAM compiler.

    Attributes:
        rows: Number of word lines (#X).
        columns: Number of words per row, i.e. the column-mux factor (#Y).
        bits_per_word: Word width (#B).
        blocks: Number of identical blocks (#Z, optional in the paper's
            estimator; default 1).
    """

    rows: int
    columns: int
    bits_per_word: int
    blocks: int = 1

    def __post_init__(self) -> None:
        for name in ("rows", "columns", "bits_per_word", "blocks"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    # ------------------------------------------------------------------
    # Sizes
    # ------------------------------------------------------------------
    @property
    def words_per_block(self) -> int:
        return self.rows * self.columns

    @property
    def words(self) -> int:
        return self.words_per_block * self.blocks

    @property
    def bits_per_block(self) -> int:
        return self.rows * self.columns * self.bits_per_word

    @property
    def bits(self) -> int:
        """Total storage bits (the N of a kN march test on bit level)."""
        return self.bits_per_block * self.blocks

    @property
    def bitlines_per_block(self) -> int:
        """Physical columns of one block's array."""
        return self.columns * self.bits_per_word

    @property
    def address_bits(self) -> int:
        """Word-address width (rows x columns x blocks, rounded up)."""
        return max(1, math.ceil(math.log2(self.words)))

    # ------------------------------------------------------------------
    # Address mapping
    # ------------------------------------------------------------------
    def split_address(self, word_address: int) -> tuple[int, int, int]:
        """Word address -> (block, row, column)  [row-major within block]."""
        self._check_word_address(word_address)
        block, rest = divmod(word_address, self.words_per_block)
        row, col = divmod(rest, self.columns)
        return block, row, col

    def bit_position(self, word_address: int, bit: int) -> tuple[int, int, int]:
        """Physical position of one data bit: (block, row, bitline).

        Bit *b* of every word in a row sits in column-mux group *b*:
        ``bitline = bit * columns + column`` -- the standard interleaved
        organisation (important for coupling-fault adjacency).
        """
        if not 0 <= bit < self.bits_per_word:
            raise ValueError(f"bit index out of range: {bit}")
        block, row, col = self.split_address(word_address)
        return block, row, bit * self.columns + col

    def cell_index(self, word_address: int, bit: int) -> int:
        """Flat bit-cell index over the whole memory (for the functional
        simulator's one-dimensional cell space)."""
        block, row, bitline = self.bit_position(word_address, bit)
        return (block * self.bits_per_block
                + row * self.bitlines_per_block + bitline)

    def _check_word_address(self, word_address: int) -> None:
        if not 0 <= word_address < self.words:
            raise ValueError(
                f"word address {word_address} out of range [0, {self.words})"
            )

    # ------------------------------------------------------------------
    # Physical dimensions (for IFA critical-area scaling)
    # ------------------------------------------------------------------
    def array_area_um2(self) -> float:
        """Bit-array silicon area in um^2.

        The 1.6 x 1.2 um cell approximates a 0.18 um 6T SRAM cell
        (~2 um^2); used by the yield model ``Y = exp(-A * D0)``.
        """
        return self.bits * 1.6 * 1.2

    def __str__(self) -> str:
        return (
            f"{self.rows}R x {self.columns}C x {self.bits_per_word}B"
            + (f" x {self.blocks}Z" if self.blocks > 1 else "")
            + f" = {self.bits} bits"
        )


#: One SRAM instance of the paper's Veqtor4 test chip: 256 Kbit.
#: Organised 512 rows x 16 words x 32 bits = 262144 bits.
VEQTOR4_INSTANCE = MemoryGeometry(rows=512, columns=16, bits_per_word=32)
