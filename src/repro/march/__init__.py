"""March test engine: notation, library, sequencing and validation.

The paper tests its SRAMs with a family of march tests (an 11N production
test derived from MATS++, March C- and MOVI).  This package provides the
full machinery: operation/element/test algebra with the standard textual
notation, a library of published march tests, the MOVI address-rotation
procedure, a per-clock-cycle sequencer and static validation.
"""
