"""Fault-class coverage of march tests (the classical coverage tables).

For each classical fault model the generator enumerates every instance
over a (small) memory -- every cell for single-cell faults, every ordered
aggressor/victim pair for coupling faults -- and the analyser runs the
functional fault simulator to compute the detected fraction.  This is the
"fault coverage" baseline that the paper contrasts with defect-oriented
coverage: a test can score 100 % on SAF/TF/CF yet miss resistive defects
that need stress conditions.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass

from repro.faults.dynamic import make_double_read_fault, make_dynamic_rdf
from repro.faults.models import (
    DeceptiveReadDestructiveFault,
    DisturbCouplingFault,
    FunctionalFault,
    IdempotentCouplingFault,
    IncorrectReadFault,
    InversionCouplingFault,
    MultipleAccessFault,
    NoAccessFault,
    ReadDestructiveFault,
    StateCouplingFault,
    StuckAtFault,
    StuckOpenFault,
    TransitionFault,
    WriteDisturbFault,
    WrongAccessFault,
)
from repro.faults.simulator import FunctionalFaultSimulator
from repro.march.sequencer import DataBackground
from repro.march.test import MarchTest

#: Name -> generator(n_cells) for every supported fault class.
FAULT_CLASS_GENERATORS: dict[str, Callable[[int], Iterator[FunctionalFault]]] = {}


def _register(name: str):
    def deco(fn: Callable[[int], Iterator[FunctionalFault]]):
        FAULT_CLASS_GENERATORS[name] = fn
        return fn
    return deco


@_register("SAF")
def gen_saf(n: int) -> Iterator[FunctionalFault]:
    """All stuck-at faults: 2 per cell."""
    for cell in range(n):
        yield StuckAtFault(cell, 0)
        yield StuckAtFault(cell, 1)


@_register("TF")
def gen_tf(n: int) -> Iterator[FunctionalFault]:
    """All transition faults: 2 per cell."""
    for cell in range(n):
        yield TransitionFault(cell, rising=True)
        yield TransitionFault(cell, rising=False)


@_register("SOF")
def gen_sof(n: int) -> Iterator[FunctionalFault]:
    """All stuck-open faults: 1 per cell."""
    for cell in range(n):
        yield StuckOpenFault(cell)


@_register("RDF")
def gen_rdf(n: int) -> Iterator[FunctionalFault]:
    for cell in range(n):
        yield ReadDestructiveFault(cell)


@_register("DRDF")
def gen_drdf(n: int) -> Iterator[FunctionalFault]:
    for cell in range(n):
        yield DeceptiveReadDestructiveFault(cell)


@_register("IRF")
def gen_irf(n: int) -> Iterator[FunctionalFault]:
    for cell in range(n):
        yield IncorrectReadFault(cell)


@_register("WDF")
def gen_wdf(n: int) -> Iterator[FunctionalFault]:
    for cell in range(n):
        yield WriteDisturbFault(cell)


@_register("CFin")
def gen_cfin(n: int) -> Iterator[FunctionalFault]:
    """Inversion coupling: both transition polarities, all ordered pairs."""
    for agg in range(n):
        for vic in range(n):
            if agg == vic:
                continue
            yield InversionCouplingFault(agg, vic, rising=True)
            yield InversionCouplingFault(agg, vic, rising=False)


@_register("CFid")
def gen_cfid(n: int) -> Iterator[FunctionalFault]:
    """Idempotent coupling: 4 per ordered pair."""
    for agg in range(n):
        for vic in range(n):
            if agg == vic:
                continue
            for rising in (True, False):
                for forced in (0, 1):
                    yield IdempotentCouplingFault(agg, vic, rising, forced)


@_register("CFst")
def gen_cfst(n: int) -> Iterator[FunctionalFault]:
    """State coupling: 4 per ordered pair."""
    for agg in range(n):
        for vic in range(n):
            if agg == vic:
                continue
            for state in (0, 1):
                for forced in (0, 1):
                    yield StateCouplingFault(agg, vic, state, forced)


@_register("CFdst")
def gen_cfdst(n: int) -> Iterator[FunctionalFault]:
    for agg in range(n):
        for vic in range(n):
            if agg == vic:
                continue
            for forced in (0, 1):
                yield DisturbCouplingFault(agg, vic, forced)


@_register("AF")
def gen_af(n: int) -> Iterator[FunctionalFault]:
    """Address-decoder faults: no-access (both float polarities),
    wrong-access and multiple-access in both neighbour directions."""
    for addr in range(n):
        yield NoAccessFault(addr, float_value=1)
        yield NoAccessFault(addr, float_value=0)
        for other in ((addr + 1) % n, (addr - 1) % n):
            yield WrongAccessFault(addr, other)
            yield MultipleAccessFault(addr, (other,))


@_register("dRDF")
def gen_dynamic_rdf(n: int) -> Iterator[FunctionalFault]:
    """Dynamic faults: w-r and r-r back-to-back sensitisation."""
    for cell in range(n):
        yield make_dynamic_rdf(cell, 0)
        yield make_dynamic_rdf(cell, 1)
        yield make_double_read_fault(cell, 0)
        yield make_double_read_fault(cell, 1)


@dataclass(frozen=True)
class CoverageResult:
    """Coverage of one test over one fault class."""

    test_name: str
    fault_class: str
    detected: int
    total: int

    @property
    def coverage(self) -> float:
        """Detected fraction in [0, 1]."""
        return self.detected / self.total if self.total else 1.0

    @property
    def percent(self) -> float:
        return 100.0 * self.coverage

    def __str__(self) -> str:
        return (
            f"{self.test_name} vs {self.fault_class}: "
            f"{self.detected}/{self.total} = {self.percent:.1f}%"
        )


def class_coverage(
    test: MarchTest,
    fault_class: str,
    n_cells: int = 16,
) -> CoverageResult:
    """Coverage of ``test`` over every instance of one fault class, run
    on a solid data background.

    ``n_cells`` trades accuracy for runtime; 16 cells is enough for the
    classical models because their detectability does not depend on the
    array size (the standard theoretical results are location-independent
    except for address boundary cases, which 16 cells already includes).
    """
    try:
        generator = FAULT_CLASS_GENERATORS[fault_class]
    except KeyError:
        raise KeyError(
            f"unknown fault class {fault_class!r}; available: "
            f"{sorted(FAULT_CLASS_GENERATORS)}"
        ) from None
    sim = FunctionalFaultSimulator(n_cells)
    detected = 0
    total = 0
    for fault in generator(n_cells):
        total += 1
        if sim.detects(test, fault, DataBackground.SOLID):
            detected += 1
    return CoverageResult(test.name, fault_class, detected, total)


def coverage_matrix(
    tests: Iterable[MarchTest],
    fault_classes: Iterable[str] | None = None,
    n_cells: int = 16,
) -> dict[str, dict[str, CoverageResult]]:
    """Full test x fault-class coverage matrix.

    Returns ``matrix[test_name][fault_class] -> CoverageResult``; the
    ablation benchmark renders this as the classical march-test
    comparison table.
    """
    classes = list(fault_classes) if fault_classes else sorted(
        FAULT_CLASS_GENERATORS
    )
    matrix: dict[str, dict[str, CoverageResult]] = {}
    for test in tests:
        row = {}
        for fc in classes:
            row[fc] = class_coverage(test, fc, n_cells)
        matrix[test.name] = row
    return matrix
