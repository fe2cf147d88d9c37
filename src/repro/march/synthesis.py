"""March test synthesis: search for new algorithms against a fault set.

The paper closes with: "As continuation of this research, we would like
to explore new test algorithms for targeting the soft defects."  This
module implements that continuation as a greedy set-cover synthesiser:

* a candidate pool of march elements (all internally consistent
  read/write sequences up to a length bound, in both address orders,
  compatible with the array state the partial test leaves behind);
* a greedy loop appending whichever candidate detects the most
  still-undetected faults per added operation.

Fault universes are supplied as factories so the synthesiser targets
anything the simulator can run: classical classes from
:mod:`repro.faults.coverage`, dynamic faults, address-decoder delay
faults, or behavioural renderings of resistive defects at a stress
condition.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from repro.faults.models import FunctionalFault
from repro.faults.simulator import FunctionalFaultSimulator
from repro.march.element import AddressOrder, MarchElement
from repro.march.ops import Op, OpKind
from repro.march.test import MarchTest

#: A fault factory: builds a fresh fault instance (simulation mutates
#: internal state, so every evaluation needs its own copy).
FaultFactory = Callable[[], FunctionalFault]


def candidate_elements(entry_state: int | None,
                       max_ops: int = 3) -> list[MarchElement]:
    """All useful march elements compatible with an entry state.

    Enumerates internally consistent op sequences up to ``max_ops`` whose
    leading reads match ``entry_state`` (``None`` = unknown array: the
    element must start with a write), in both deterministic address
    orders.
    """
    alphabet = [Op(OpKind.READ, 0), Op(OpKind.READ, 1),
                Op(OpKind.WRITE, 0), Op(OpKind.WRITE, 1)]
    sequences: list[tuple[Op, ...]] = []
    for length in range(1, max_ops + 1):
        for ops in itertools.product(alphabet, repeat=length):
            if _sequence_ok(ops, entry_state):
                sequences.append(ops)
    out = []
    for ops in sequences:
        for order in (AddressOrder.UP, AddressOrder.DOWN):
            out.append(MarchElement(order, ops))
    return out


def _sequence_ok(ops: tuple[Op, ...], entry_state: int | None) -> bool:
    """Internal consistency + entry-state compatibility + usefulness."""
    state = entry_state
    for op in ops:
        if op.is_read:
            if state is None or op.value != state:
                return False
        else:
            state = op.value
    # Reject no-ops: an element should read or change the state.
    if all(op.is_write for op in ops) and state == entry_state:
        return False
    return True


@dataclass
class SynthesisResult:
    """Outcome of a synthesis run.

    Attributes:
        test: The synthesised march test.
        detected: Number of target faults the test detects.
        total: Target universe size.
        history: Per-round log ``(element notation, newly detected)``.
    """

    test: MarchTest
    detected: int
    total: int
    history: list[tuple[str, int]] = field(default_factory=list)

    @property
    def coverage(self) -> float:
        return self.detected / self.total if self.total else 1.0


class MarchSynthesizer:
    """Greedy march test synthesis against a fault universe.

    Args:
        n_cells: Memory size used for evaluation (8-16 is enough for the
            classical fault classes; use more when targeting
            address-bit-dependent faults).
        max_ops_per_element: Candidate element length bound.
        max_elements: Hard cap on synthesised test length.
    """

    def __init__(self, n_cells: int = 8, max_ops_per_element: int = 3,
                 max_elements: int = 8) -> None:
        if n_cells < 2:
            raise ValueError("n_cells must be at least 2")
        self.n_cells = n_cells
        self.max_ops_per_element = max_ops_per_element
        self.max_elements = max_elements
        self._sim = FunctionalFaultSimulator(n_cells)

    # ------------------------------------------------------------------
    def _detects(self, elements: Sequence[MarchElement],
                 factory: FaultFactory) -> bool:
        test = MarchTest("candidate", tuple(elements))
        return self._sim.detects(test, factory())

    def synthesise(self, factories: Sequence[FaultFactory],
                   name: str = "Synth") -> SynthesisResult:
        """Build a test covering as much of the fault universe as the
        search can reach.

        Greedy loop: each round evaluates every compatible candidate
        element against the still-undetected faults and appends the one
        with the best (newly detected / ops) ratio; ties prefer shorter
        elements.  When no candidate detects anything the loop seeds a
        state-setting element (multi-element sensitising sequences, e.g.
        dynamic faults, need an initialisation that detects nothing by
        itself).  Stops at full coverage, exhausted seeds, or the
        element cap.
        """
        if not factories:
            raise ValueError("fault universe must not be empty")
        elements: list[MarchElement] = []
        undetected = list(range(len(factories)))
        exit_state: int | None = None
        history: list[tuple[str, int]] = []
        seeds_available = [0, 1]

        while undetected and len(elements) < self.max_elements:
            best = None  # (score, element, newly_detected_ids)
            for cand in candidate_elements(exit_state,
                                           self.max_ops_per_element):
                trial = elements + [cand]
                newly = [
                    i for i in undetected
                    if self._detects(trial, factories[i])
                ]
                if not newly:
                    continue
                score = (len(newly) / len(cand), -len(cand))
                if best is None or score > best[0]:
                    best = (score, cand, newly)
            if best is None:
                seed_state = next(
                    (s for s in seeds_available if s != exit_state), None)
                if seed_state is None:
                    break
                seeds_available.remove(seed_state)
                seed = MarchElement(
                    AddressOrder.ANY, (Op(OpKind.WRITE, seed_state),))
                elements.append(seed)
                history.append((seed.notation, 0))
                exit_state = seed_state
                continue
            _, element, newly = best
            elements.append(element)
            history.append((element.notation, len(newly)))
            undetected = [i for i in undetected if i not in set(newly)]
            final = element.final_write_value()
            if final is not None:
                exit_state = final

        test = MarchTest(name, tuple(elements)) if elements else MarchTest(
            name, (MarchElement(AddressOrder.ANY,
                                (Op(OpKind.WRITE, 0),)),))
        detected = len(factories) - len(undetected)
        return SynthesisResult(test, detected, len(factories), history)


def classical_universe(n_cells: int = 8,
                       classes: Sequence[str] = ("SAF", "TF", "CFin"),
                       ) -> list[FaultFactory]:
    """Fault factories for the classical classes (for synthesis)."""
    from repro.faults.coverage import FAULT_CLASS_GENERATORS

    factories: list[FaultFactory] = []
    for cls in classes:
        generator = FAULT_CLASS_GENERATORS[cls]
        count = sum(1 for _ in generator(n_cells))
        for index in range(count):
            def make(generator=generator, index=index) -> FunctionalFault:
                return next(itertools.islice(generator(n_cells), index,
                                             index + 1))
            factories.append(make)
    return factories
