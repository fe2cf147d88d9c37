"""Fault primitive notation <S/F/R>.

Memory-test literature describes functional faults with fault primitives
(FPs): ``<S/F/R>`` where

* ``S`` is the sensitising sequence -- the state or operation(s) needed
  to activate the fault, written like ``0w1`` (from state 0, write 1) or
  just ``1`` (state 1 alone sensitises);
* ``F`` is the faulty value the victim cell assumes (0, 1);
* ``R`` is the value a sensitising *read* returns (0, 1, or ``-`` when
  the sensitising sequence is not a read).

Two-cell primitives prefix the victim part with the aggressor condition,
``<Sa; Sv/F/R>``.  This module implements the notation as data (parse and
format), and the classical fault models in :mod:`repro.faults.models` are
each defined by their FP set -- matching the taxonomy of van de Goor and
of the dynamic-fault work the paper cites [Borri 03].
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.march.ops import Op


@dataclass(frozen=True)
class SensitisingSequence:
    """The S part of a fault primitive for one cell.

    Attributes:
        initial_state: Required cell state before the operations (or None
            when any state sensitises).
        operations: The operations (possibly empty: a *state* fault).
    """

    initial_state: int | None
    operations: tuple[Op, ...] = ()

    def __post_init__(self) -> None:
        if self.initial_state not in (None, 0, 1):
            raise ValueError("initial_state must be None, 0 or 1")

    @property
    def notation(self) -> str:
        state = "" if self.initial_state is None else str(self.initial_state)
        ops = "".join(op.notation for op in self.operations)
        return state + ops or "-"

    def __str__(self) -> str:
        return self.notation

    @staticmethod
    def parse(text: str) -> "SensitisingSequence":
        """Parse e.g. ``'0w1'``, ``'1'``, ``'0r0r0'`` or ``'-'``."""
        text = text.strip().lower()
        if text in ("", "-"):
            return SensitisingSequence(None)
        m = re.fullmatch(r"([01])?((?:[rw][01])*)", text)
        if not m:
            raise ValueError(f"cannot parse sensitising sequence: {text!r}")
        state = int(m.group(1)) if m.group(1) else None
        body = m.group(2)
        ops = tuple(Op.parse(body[i:i + 2]) for i in range(0, len(body), 2))
        return SensitisingSequence(state, ops)


@dataclass(frozen=True)
class FaultPrimitive:
    """A complete fault primitive ``<Sa; Sv / F / R>``.

    Single-cell primitives have ``aggressor=None``.

    Attributes:
        victim: Sensitising condition on the victim cell.
        faulty_value: Value the victim holds after sensitisation.
        read_output: Output of the sensitising read, ``None`` when S does
            not end in a read.
        aggressor: Optional sensitising condition on the aggressor cell.
    """

    victim: SensitisingSequence
    faulty_value: int
    read_output: int | None = None
    aggressor: SensitisingSequence | None = None

    def __post_init__(self) -> None:
        if self.faulty_value not in (0, 1):
            raise ValueError("faulty_value must be 0 or 1")
        if self.read_output not in (None, 0, 1):
            raise ValueError("read_output must be None, 0 or 1")
        ends_in_read = (
            self.victim.operations and self.victim.operations[-1].is_read
        )
        if self.read_output is not None and not ends_in_read:
            raise ValueError(
                "read_output given but the victim sequence does not end in a read"
            )

    @property
    def is_coupling(self) -> bool:
        return self.aggressor is not None

    @property
    def operation_count(self) -> int:
        """Number of operations in S -- static faults have <=1, dynamic
        faults (the paper's 'soft defect' behaviours) have >=2."""
        count = len(self.victim.operations)
        if self.aggressor is not None:
            count += len(self.aggressor.operations)
        return count

    @property
    def notation(self) -> str:
        r = "-" if self.read_output is None else str(self.read_output)
        if self.aggressor is not None:
            return f"<{self.aggressor}; {self.victim}/{self.faulty_value}/{r}>"
        return f"<{self.victim}/{self.faulty_value}/{r}>"

    def __str__(self) -> str:
        return self.notation

    @staticmethod
    def parse(text: str) -> "FaultPrimitive":
        """Parse ``'<0w1/0/->'`` or ``'<1; 0/1/->'`` style notation."""
        text = text.strip()
        if not (text.startswith("<") and text.endswith(">")):
            raise ValueError(f"fault primitive must be <...>: {text!r}")
        body = text[1:-1]
        parts = body.rsplit("/", 2)
        if len(parts) != 3:
            raise ValueError(f"fault primitive needs S/F/R: {text!r}")
        s_part, f_part, r_part = (p.strip() for p in parts)
        aggressor = None
        if ";" in s_part:
            a_text, v_text = s_part.split(";", 1)
            aggressor = SensitisingSequence.parse(a_text)
            victim = SensitisingSequence.parse(v_text)
        else:
            victim = SensitisingSequence.parse(s_part)
        faulty = int(f_part)
        read_out = None if r_part == "-" else int(r_part)
        return FaultPrimitive(victim, faulty, read_out, aggressor)
