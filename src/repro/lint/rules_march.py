"""March-test rule pack (``MARCH0xx``).

Static checks for march tests built or parsed by users; run them with
:func:`repro.lint.lint_march`.  Rules MARCH001..MARCH012.

Context object: a :class:`repro.march.test.MarchTest` (any object with
the same ``elements`` protocol works, including ones bypassing the
constructor -- a test with zero elements is reported as an error, not
silently accepted).
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.lint.core import Finding, Severity, rule
from repro.march.element import AddressOrder
from repro.march.pause import PauseElement
from repro.march.test import MarchTest

def _operational_elements(test: MarchTest) -> list:
    return [el for el in test.elements if not isinstance(el, PauseElement)]


@rule("MARCH001", "march", "test performs no operations",
      severity=Severity.ERROR,
      rationale="A test with no march elements (or only pause elements) "
                "applies nothing to the array; running it on the ATE "
                "burns test time and detects nothing.")
def check_has_operations(test: MarchTest) -> Iterator[Finding]:
    if not test.elements:
        yield Finding("test contains no elements")
    elif not _operational_elements(test):
        yield Finding("test contains only pause elements")


@rule("MARCH002", "march", "read before initialisation",
      severity=Severity.ERROR,
      rationale="Array content is undefined at power-up; a leading read "
                "compares against garbage and fails good devices.")
def check_initialisation(test: MarchTest) -> Iterator[Finding]:
    first = next(iter(_operational_elements(test)), None)
    if first is not None and first.ops[0].is_read:
        yield Finding(
            f"first element {first.notation} reads before any write; the "
            "array content is undefined at power-up",
            location="element 0")


@rule("MARCH003", "march", "element internally inconsistent",
      severity=Severity.ERROR,
      rationale="A read expecting a value other than the element's own "
                "preceding write fails on every fault-free device.")
def check_element_consistency(test: MarchTest) -> Iterator[Finding]:
    for idx, element in enumerate(test.elements):
        if not element.is_consistent():
            yield Finding(
                f"element {idx} {element.notation} reads a value that "
                "contradicts its own preceding write",
                location=f"element {idx}")


@rule("MARCH004", "march", "entry state mismatch",
      severity=Severity.ERROR,
      rationale="Each element's first read must match the state the "
                "previous elements leave behind, or the test fails on "
                "fault-free silicon.")
def check_entry_states(test: MarchTest) -> Iterator[Finding]:
    state: int | None = None
    for idx, element in enumerate(test.elements):
        entry = element.entry_state()
        if entry is not None and state is not None and entry != state:
            yield Finding(
                f"element {idx} {element.notation} expects cells = {entry} "
                f"but the previous elements leave cells = {state}",
                location=f"element {idx}")
        final = element.final_write_value()
        if final is not None:
            state = final


@rule("MARCH005", "march", "test performs no reads",
      severity=Severity.ERROR,
      rationale="Reads are the only observation mechanism; a test "
                "without them cannot detect any fault.")
def check_has_reads(test: MarchTest) -> Iterator[Finding]:
    if _read_count(test) == 0:
        yield Finding(
            "test performs no reads and therefore cannot detect anything")


@rule("MARCH006", "march", "never reads 0",
      severity=Severity.WARNING,
      rationale="Without a 0-read, stuck-at-1 cells escape.")
def check_reads_zero(test: MarchTest) -> Iterator[Finding]:
    if _read_count(test) and 0 not in _read_values(test):
        yield Finding("test never reads 0: stuck-at-1 cells escape")


@rule("MARCH007", "march", "never reads 1",
      severity=Severity.WARNING,
      rationale="Without a 1-read, stuck-at-0 cells escape.")
def check_reads_one(test: MarchTest) -> Iterator[Finding]:
    if _read_count(test) and 1 not in _read_values(test):
        yield Finding("test never reads 1: stuck-at-0 cells escape")


@rule("MARCH008", "march", "fewer than two write transitions",
      severity=Severity.WARNING,
      rationale="Transition faults need both an up- and a down-"
                "transition per cell to be sensitised.")
def check_transitions(test: MarchTest) -> Iterator[Finding]:
    if _read_count(test) and _transition_count(test) < 2:
        yield Finding(
            "test exercises fewer than two write transitions per cell; "
            "transition faults may escape")


@rule("MARCH009", "march", "single address direction",
      severity=Severity.WARNING,
      rationale="Address-decoder and inter-cell coupling faults need "
                "both ascending and descending passes.")
def check_directions(test: MarchTest) -> Iterator[Finding]:
    if _read_count(test) == 0:
        return
    orders = {el.order for el in _operational_elements(test)}
    if AddressOrder.UP not in orders or AddressOrder.DOWN not in orders:
        yield Finding(
            "test marches in only one address direction; address-decoder "
            "and inter-cell coupling coverage is reduced")


@rule("MARCH010", "march", "redundant march element",
      severity=Severity.INFO,
      rationale="A write-free element identical to its predecessor "
                "re-observes exactly the same state; it adds N cycles "
                "of test time with no new detection (deliberate "
                "back-to-back reads *within* one element, as in March "
                "SS/RAW, are not flagged).")
def check_redundant_elements(test: MarchTest) -> Iterator[Finding]:
    previous = None
    for idx, element in enumerate(test.elements):
        if (previous is not None
                and not isinstance(element, PauseElement)
                and element == previous
                and not element.writes):
            yield Finding(
                f"element {idx} {element.notation} repeats element "
                f"{idx - 1} without any intervening write; the second "
                "pass cannot observe anything new",
                location=f"element {idx}")
        previous = element


@rule("MARCH011", "march", "unreachable read expectation",
      severity=Severity.ERROR,
      rationale="Two pre-write reads of opposite values inside one "
                "element can never both succeed on a fault-free device; "
                "the element-level consistency walk only cross-checks "
                "reads after the first write, so this slips past "
                "MARCH003/MARCH004.")
def check_unreachable_reads(test: MarchTest) -> Iterator[Finding]:
    for idx, element in enumerate(test.elements):
        if isinstance(element, PauseElement):
            continue
        expected: int | None = None
        for op in element.ops:
            if op.is_write:
                break
            if expected is not None and op.value != expected:
                yield Finding(
                    f"element {idx} {element.notation} reads "
                    f"{op.value} after already requiring {expected} with "
                    "no intervening write; the expectation is "
                    "unreachable", location=f"element {idx}")
                break
            expected = op.value


@rule("MARCH012", "march", "ineffective pause placement",
      severity=Severity.WARNING,
      rationale="A retention pause only matters if written data exists "
                "before it and a read observes the decay after it; "
                "pauses placed elsewhere add wall-clock time without "
                "adding coverage (March G's published delay placement "
                "is the positive example).")
def check_pause_placement(test: MarchTest) -> Iterator[Finding]:
    elements = list(test.elements)
    any_write_before = False
    for idx, element in enumerate(elements):
        if not isinstance(element, PauseElement):
            any_write_before = any_write_before or bool(element.writes)
            continue
        if not any_write_before:
            yield Finding(
                f"pause element {idx} {element.notation} precedes any "
                "write; there is no stored data to decay",
                location=f"element {idx}")
        elif not any(len(later.reads) > 0 for later in elements[idx + 1:]
                     if not isinstance(later, PauseElement)):
            yield Finding(
                f"pause element {idx} {element.notation} is never "
                "followed by a read; retention loss cannot be observed",
                location=f"element {idx}")
        if idx and isinstance(elements[idx - 1], PauseElement):
            yield Finding(
                f"pause elements {idx - 1} and {idx} are adjacent; merge "
                "them into one interval",
                location=f"element {idx}")


# ----------------------------------------------------------------------
# Helpers tolerant of zero-element test objects (MarchTest's constructor
# forbids them, but lint must not crash on hand-built or corrupted ones).
# ----------------------------------------------------------------------
def _read_count(test: MarchTest) -> int:
    return sum(len(el.reads) for el in test.elements)


def _read_values(test: MarchTest) -> set[int]:
    return {op.value for el in test.elements for op in el.reads}


def _transition_count(test: MarchTest) -> int:
    state: int | None = None
    transitions = 0
    for element in test.elements:
        for op in element.ops:
            if op.is_write:
                if state is not None and op.value != state:
                    transitions += 1
                state = op.value
    return transitions
