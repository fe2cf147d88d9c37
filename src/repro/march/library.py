"""Library of standard march tests.

All tests are taken from the published literature (van de Goor, "Testing
Semiconductor Memories", 1998; Adams, "High Performance Memory Testing",
2002) plus the paper's production test:

* :data:`TEST_11N` -- the paper's "11N March test, a variation of MATS++,
  March C- and MOVI" (Section 2).  Its element set is reconstructed from
  the bitmap evidence in Sections 4.1/4.2, which names the elements
  ``{R0W1}``, ``{R1W0R0}`` and ``{R0W1R1}``; together with an
  initialisation and a descending cleanup pass this yields exactly 11N:

      ⇕(w0); ⇑(r0,w1); ⇑(r1,w0,r0); ⇓(r0,w1,r1); ⇓(r1,w0)

* The MOVI procedure [de Jonge & Smeulders 1976] reruns a base march test
  once per address bit with that bit toggling fastest;
  :func:`repro.march.sequencer.bit_rotation_map` is the address permutation
  of one such run.
"""

from __future__ import annotations

from repro.march.element import AddressOrder, MarchElement
from repro.march.ops import R0, R1, W0, W1
from repro.march.pause import PauseElement
from repro.march.test import MarchTest

_UP = AddressOrder.UP
_DOWN = AddressOrder.DOWN
_ANY = AddressOrder.ANY


def _el(order: AddressOrder, *ops) -> MarchElement:
    return MarchElement(order, tuple(ops))


#: MATS: 4N, detects stuck-at faults only.
MATS = MarchTest(
    "MATS",
    (_el(_ANY, W0), _el(_ANY, R0, W1), _el(_ANY, R1)),
    "Modified Algorithmic Test Sequence; SAF coverage [Nair 79].",
)

#: MATS+: 5N, SAF + AF coverage.
MATS_PLUS = MarchTest(
    "MATS+",
    (_el(_ANY, W0), _el(_UP, R0, W1), _el(_DOWN, R1, W0)),
    "MATS+ [Abadir 83]; address decoder + stuck-at faults.",
)

#: MATS++: 6N, SAF + AF + TF coverage; one of the three bases of the
#: paper's 11N test.
MATS_PLUS_PLUS = MarchTest(
    "MATS++",
    (_el(_ANY, W0), _el(_UP, R0, W1), _el(_DOWN, R1, W0, R0)),
    "MATS++ [Breuer & Friedman]; adds transition-fault coverage.",
)

#: March X: 6N, unlinked inversion coupling faults.
MARCH_X = MarchTest(
    "March X",
    (
        _el(_ANY, W0),
        _el(_UP, R0, W1),
        _el(_DOWN, R1, W0),
        _el(_ANY, R0),
    ),
    "March X; CFin coverage.",
)

#: March Y: 8N, March X plus linked transition faults.
MARCH_Y = MarchTest(
    "March Y",
    (
        _el(_ANY, W0),
        _el(_UP, R0, W1, R1),
        _el(_DOWN, R1, W0, R0),
        _el(_ANY, R0),
    ),
    "March Y; TF linked with CFin.",
)

#: March C-: 10N, the workhorse for unlinked coupling faults; one of the
#: three bases of the paper's 11N test.
MARCH_CM = MarchTest(
    "March C-",
    (
        _el(_ANY, W0),
        _el(_UP, R0, W1),
        _el(_UP, R1, W0),
        _el(_DOWN, R0, W1),
        _el(_DOWN, R1, W0),
        _el(_ANY, R0),
    ),
    "March C- [Marinescu 82]; complete unlinked CF coverage.",
)

#: March C+: 14N, March C- with read-after-write verification.
MARCH_CP = MarchTest(
    "March C+",
    (
        _el(_ANY, W0),
        _el(_UP, R0, W1, R1),
        _el(_UP, R1, W0, R0),
        _el(_DOWN, R0, W1, R1),
        _el(_DOWN, R1, W0, R0),
        _el(_ANY, R0),
    ),
    "March C+; adds read verification after each write.",
)

#: March A: 15N, linked coupling faults.
MARCH_A = MarchTest(
    "March A",
    (
        _el(_ANY, W0),
        _el(_UP, R0, W1, W0, W1),
        _el(_UP, R1, W0, W1),
        _el(_DOWN, R1, W0, W1, W0),
        _el(_DOWN, R0, W1, W0),
    ),
    "March A [Suk & Reddy 81]; linked CFs.",
)

#: March B: 17N, March A plus TF linked with CFs.
MARCH_B = MarchTest(
    "March B",
    (
        _el(_ANY, W0),
        _el(_UP, R0, W1, R1, W0, R0, W1),
        _el(_UP, R1, W0, W1),
        _el(_DOWN, R1, W0, W1, W0),
        _el(_DOWN, R0, W1, W0),
    ),
    "March B [Suk & Reddy 81].",
)

#: March U: 13N, unlinked faults incl. some address-decoder opens.
MARCH_U = MarchTest(
    "March U",
    (
        _el(_ANY, W0),
        _el(_UP, R0, W1, R1, W0),
        _el(_UP, R0, W1),
        _el(_DOWN, R1, W0, R0, W1),
        _el(_DOWN, R1, W0),
    ),
    "March U [van de Goor 97].",
)

#: March LR: 14N, realistic linked faults.
MARCH_LR = MarchTest(
    "March LR",
    (
        _el(_ANY, W0),
        _el(_DOWN, R0, W1),
        _el(_UP, R1, W0, R0, W1),
        _el(_UP, R1, W0),
        _el(_UP, R0, W1, R1, W0),
        _el(_ANY, R0),
    ),
    "March LR [van de Goor et al. 96].",
)

#: March SR: 14N, simple realistic fault model (incl. SOF, DRF sensitising
#: sequences when combined with delays).
MARCH_SR = MarchTest(
    "March SR",
    (
        _el(_DOWN, W0),
        _el(_UP, R0, W1, R1, W0),
        _el(_UP, R0, R0),
        _el(_DOWN, W1),
        _el(_DOWN, R1, W0, R0, W1),
        _el(_DOWN, R1, R1),
    ),
    "March SR [Hamdioui & van de Goor 00].",
)

#: March SS: 22N, all static simple faults.
MARCH_SS = MarchTest(
    "March SS",
    (
        _el(_ANY, W0),
        _el(_UP, R0, R0, W0, R0, W1),
        _el(_UP, R1, R1, W1, R1, W0),
        _el(_DOWN, R0, R0, W0, R0, W1),
        _el(_DOWN, R1, R1, W1, R1, W0),
        _el(_ANY, R0),
    ),
    "March SS [Hamdioui et al. 02]; all static single-cell and two-cell faults.",
)

#: PMOVI: 13N, the March variant underlying the MOVI procedure.
PMOVI = MarchTest(
    "PMOVI",
    (
        _el(_DOWN, W0),
        _el(_UP, R0, W1, R1),
        _el(_UP, R1, W0, R0),
        _el(_DOWN, R0, W1, R1),
        _el(_DOWN, R1, W0, R0),
    ),
    "PMOVI [de Jonge & Smeulders 76]; base test of the MOVI procedure.",
)

#: The paper's production test: 11N, reconstructed from the bitmap
#: evidence (elements {R0W1}, {R1W0R0}, {R0W1R1} are named in Sections
#: 4.1 and 4.2).
TEST_11N = MarchTest(
    "11N",
    (
        _el(_ANY, W0),
        _el(_UP, R0, W1),
        _el(_UP, R1, W0, R0),
        _el(_DOWN, R0, W1, R1),
        _el(_DOWN, R1, W0),
    ),
    "The paper's 11N production test: a variation of MATS++, March C- "
    "and MOVI (DATE 2005, Section 2).",
)

#: March G: 23N + delays; here without the pause elements.
MARCH_G = MarchTest(
    "March G",
    (
        _el(_ANY, W0),
        _el(_UP, R0, W1, R1, W0, R0, W1),
        _el(_UP, R1, W0, W1),
        _el(_DOWN, R1, W0, W1, W0),
        _el(_DOWN, R0, W1, W0),
        _el(_ANY, R0, W1, R1),
        _el(_ANY, R1, W0, R0),
    ),
    "March G (delay elements omitted); SOF + DRF-oriented.",
)

#: March RAW: 26N, complete coverage of the read-disturb families
#: (RDF, DRDF, IRF, WDF) that resistive bridges in the cell produce --
#: the algorithm direction the paper's "new test algorithms for the
#: soft defects" future work points toward.
MARCH_RAW = MarchTest(
    "March RAW",
    (
        _el(_ANY, W0),
        _el(_UP, R0, W0, R0, R0, W1, R1),
        _el(_UP, R1, W1, R1, R1, W0, R0),
        _el(_DOWN, R0, W0, R0, R0, W1, R1),
        _el(_DOWN, R1, W1, R1, R1, W0, R0),
        _el(_ANY, R0),
    ),
    "March RAW [van de Goor & Al-Ars 00]; all realistic read/write "
    "disturb faults.",
)

#: March G with its retention delays: the published form interleaves
#: pause elements before the final verify passes so data-retention
#: faults have time to decay.  The pause length here is in cycles; at
#: the 100 ns production period 2000 cycles model a 200 us hold.
MARCH_G_DEL = MarchTest(
    "March G+Del",
    (
        _el(_ANY, W0),
        _el(_UP, R0, W1, R1, W0, R0, W1),
        _el(_UP, R1, W0, W1),
        _el(_DOWN, R1, W0, W1, W0),
        _el(_DOWN, R0, W1, W0),
        PauseElement(2000),
        _el(_ANY, R0, W1, R1),
        PauseElement(2000),
        _el(_ANY, R1, W0, R0),
    ),
    "March G with retention delay elements; detects DRF.",
)


#: All library tests keyed by canonical name.
STANDARD_TESTS: dict[str, MarchTest] = {
    t.name: t
    for t in (
        MATS, MATS_PLUS, MATS_PLUS_PLUS, MARCH_X, MARCH_Y, MARCH_CM,
        MARCH_CP, MARCH_A, MARCH_B, MARCH_U, MARCH_LR, MARCH_SR, MARCH_SS,
        PMOVI, TEST_11N, MARCH_G, MARCH_G_DEL, MARCH_RAW,
    )
}


def get_test(name: str) -> MarchTest:
    """Look up a library test by name (raises ``KeyError`` with choices)."""
    try:
        return STANDARD_TESTS[name]
    except KeyError:
        raise KeyError(
            f"unknown march test {name!r}; available: "
            f"{sorted(STANDARD_TESTS)}"
        ) from None

