"""March test container: a named sequence of march elements.

A :class:`MarchTest` knows its complexity (the ``kN`` factor test
engineers quote -- the paper's production test is an "11N March test"),
can verify its own read-expectation consistency against an ideal memory,
and serialises to/from the standard textual notation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.march.element import MarchElement
from repro.march.pause import PauseElement


@dataclass(frozen=True)
class MarchTest:
    """A complete march test.

    Attributes:
        name: Identifier, e.g. ``"March C-"``.
        elements: Ordered march elements.
        description: Optional provenance/notes.
    """

    name: str
    elements: tuple[MarchElement, ...]
    description: str = ""

    def __post_init__(self) -> None:
        if not self.elements:
            raise ValueError("march test must contain at least one element")
        object.__setattr__(self, "elements", tuple(self.elements))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    @property
    def complexity(self) -> int:
        """The k in the test's k*N operation count (11 for the 11N test)."""
        return sum(len(el) for el in self.elements)

    def operation_count(self, n_cells: int) -> int:
        """Total operations applied to an ``n_cells`` memory."""
        return self.complexity * n_cells

    @property
    def notation(self) -> str:
        return "; ".join(el.notation for el in self.elements)

    def __str__(self) -> str:
        return f"{self.name}: {{{self.notation}}}"

    # ------------------------------------------------------------------
    # Consistency
    # ------------------------------------------------------------------
    def is_consistent(self) -> bool:
        """Whole-test read-expectation consistency on a fault-free memory.

        Simulates the element sequence on an abstract all-cells-same-state
        memory: every element's entry requirement must match the state
        left by its predecessors, and every element must be internally
        consistent.  The first element must not begin with a read of an
        undefined state (i.e. the test must initialise the array).
        """
        state: int | None = None  # uniform cell state; None = unknown
        for element in self.elements:
            entry = element.entry_state()
            if entry is not None:
                if state is None or entry != state:
                    return False
            if not element.is_consistent():
                return False
            final = element.final_write_value()
            if final is not None:
                state = final
        return True

    def read_count(self) -> int:
        """Reads per cell (each is a detection opportunity)."""
        return sum(len(el.reads) for el in self.elements)

    def transition_count(self) -> int:
        """Number of per-cell up/down state transitions the test exercises
        (w1 after state 0 and w0 after state 1), a coarse indicator of
        transition-fault coverage."""
        state: int | None = None
        transitions = 0
        for element in self.elements:
            for op in element.ops:
                if op.is_write:
                    if state is not None and op.value != state:
                        transitions += 1
                    state = op.value
        return transitions

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    @staticmethod
    def parse(name: str, text: str, description: str = "") -> "MarchTest":
        """Parse notation like ``'*(w0); ^(r0,w1); Del(50); v(r1,w0)'``."""
        elements = []
        for tok in text.split(";"):
            tok = tok.strip()
            if not tok:
                continue
            if tok.startswith("Del("):
                elements.append(PauseElement.parse(tok))
            else:
                elements.append(MarchElement.parse(tok))
        return MarchTest(name, tuple(elements), description)
