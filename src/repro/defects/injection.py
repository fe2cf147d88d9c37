"""Defect injection: behavioural and netlist-level.

Two injection paths, mirroring the paper's flow (Figure 2):

* **Behavioural** -- :func:`to_functional_fault` renders a
  :class:`~repro.defects.behavior.Manifestation` into a
  :class:`~repro.faults.models.FunctionalFault` that the march/tester
  machinery simulates cycle-accurately.  This is how a defect's
  stress-dependent electrical behaviour becomes observable march-element
  fails (and hence bitmap signatures like the paper's Chip-1/Chip-2).
* **Netlist-level** -- :func:`inject_bridge_into_cell` /
  :func:`inject_open_into_decoder` splice the defect into a
  transistor-level netlist for the Spice-like solver, used by the
  Figure 5/6 waveform reproduction and by calibration cross-checks.

Every netlist-level injection is ERC-checked (:mod:`repro.lint`'s
``NET0xx`` pack) before it is handed to the solver, so a malformed
injection fails loudly at the injection site instead of as a cryptic
Newton-convergence error; pass ``erc=False`` to skip the check inside
hot sweep loops.
"""

from __future__ import annotations

from repro.circuit.netlist import Netlist
from repro.defects.behavior import FaultMode, Manifestation
from repro.defects.models import Defect
from repro.faults.models import (
    DataRetentionFault,
    FunctionalFault,
    MultipleAccessFault,
    ReadDestructiveFault,
    StuckAtFault,
    StuckOpenFault,
    TransitionFault,
)
from repro.memory.cell import SixTCell
from repro.memory.decoder import build_decoder_netlist
from repro.memory.geometry import MemoryGeometry


def to_functional_fault(manifestation: Manifestation,
                        geometry: MemoryGeometry | None = None,
                        n_cells: int | None = None) -> FunctionalFault:
    """Render a manifestation into a behavioural fault instance.

    Args:
        manifestation: The stress-condition-specific behaviour.
        geometry: Memory organisation, used to find the coupled cell of
            address-hazard modes; optional when ``n_cells`` is given.
        n_cells: Address-space size fallback for the hazard neighbour.

    Returns:
        A :class:`FunctionalFault` operating on flat cell indices.
    """
    cell = manifestation.cell
    mode = manifestation.mode
    if n_cells is None:
        n_cells = geometry.bits if geometry is not None else cell + 2

    if mode is FaultMode.CELL_STUCK:
        return StuckAtFault(cell, manifestation.stuck_value)
    if mode is FaultMode.CELL_FLIP:
        # Read-disturb upset: the read itself flips the cell.
        return ReadDestructiveFault(cell)
    if mode is FaultMode.READ_DELAY:
        # The read misses its window: at the failing condition the
        # sensed data lags the cell -- behaviourally a stuck-open-like
        # stale read of the victim.  The column stride keeps the stale
        # value per bit line in word-organised arrays.
        stride = geometry.bitlines_per_block if geometry is not None else 1
        return StuckOpenFault(cell, column_stride=stride)
    if mode is FaultMode.ADDRESS_HAZARD:
        # Dual-select disturb: accessing the victim also touches the
        # hazard neighbour (the paper's decoder-open signature: a unique
        # wrong read on specific march elements).
        other = (cell + 1) % n_cells
        if other == cell:
            other = (cell - 1) % n_cells
        return MultipleAccessFault(cell, (other,))
    if mode is FaultMode.WRITE_FAIL:
        return TransitionFault(cell, rising=manifestation.stuck_value == 0)
    if mode is FaultMode.RETENTION:
        # The decay window must elapse between successive touches of the
        # victim.  At word granularity a cell is re-touched roughly every
        # `words` cycles (once per march element), so scale the window to
        # the word count when the geometry is known; the flat cell count
        # is only correct for bit-level simulation.
        horizon = geometry.words if geometry is not None else n_cells
        return DataRetentionFault(cell, manifestation.stuck_value,
                                  retention_cycles=max(2, horizon // 2))
    raise ValueError(f"unknown fault mode {mode}")


def decoder_open_to_delay_fault(defect, condition, address_bits: int,
                                behavior) -> "object | None":
    """Render a decoder-input open's at-speed lag as an
    :class:`~repro.faults.address_delay.AddressTransitionDelayFault`.

    Returns ``None`` when the lag fits the period's address-settle
    budget.  The affected address bit is derived from the defect's
    location; the polarity from its sign convention.  Feed the result to
    :class:`repro.tester.movi.MoviExecutor` -- linear marching cannot
    sensitise bits above 0 ([Azimane 04]).
    """
    from repro.faults.address_delay import AddressTransitionDelayFault

    if not behavior.decoder_open_delay_manifests(defect, condition):
        return None
    return AddressTransitionDelayFault(
        bit=defect.cell % address_bits,
        rising=defect.polarity > 0,
        address_bits=address_bits,
    )


# ----------------------------------------------------------------------
# Netlist-level injection (Spice-like path)
# ----------------------------------------------------------------------
def inject_bridge_into_cell(cell: SixTCell, vdd: float, state: int,
                            defect: Defect,
                            to_rail: str | None = None,
                            erc: bool = True) -> Netlist:
    """Standalone 6T-cell netlist with the bridge spliced in.

    Args:
        cell: The cell template.
        vdd: Supply voltage.
        state: Stored value under attack.
        defect: Bridge defect (its resistance is used).
        to_rail: ``"gnd"``/``"vdd"``; default chosen from the defect
            polarity (-1 -> gnd).
        erc: Run the netlist ERC pack on the result and raise
            :class:`repro.lint.LintError` on error findings; disable
            inside hot sweep loops.

    Returns:
        The faulty netlist, ready for
        :meth:`repro.memory.cell.SixTCell.solve_state`.
    """
    rail = to_rail if to_rail is not None else ("gnd" if defect.polarity < 0
                                                else "vdd")
    base = cell.standalone_netlist(vdd, state)
    high_node = cell.node("t") if state else cell.node("c")
    low_node = cell.node("c") if state else cell.node("t")
    if rail == "gnd":
        faulty = base.with_bridge(high_node, "0", defect.resistance)
    else:
        faulty = base.with_bridge(low_node, "vdd", defect.resistance)
    if erc:
        _erc_check(faulty, cell.tech)
    return faulty


def _erc_check(netlist: Netlist, tech) -> None:
    """Gate an injected netlist on the ``NET0xx`` ERC pack (errors only)."""
    from repro.lint import assert_netlist_clean

    assert_netlist_clean(netlist, tech=tech,
                         target=f"injection:{netlist.title}")


def inject_open_into_decoder(tech, vdd: float, defect: Defect,
                             address_bits: int = 2,
                             erc: bool = True) -> Netlist:
    """Decoder netlist with a resistive open at the LSB input inverter.

    Reproduces the paper's Figure 5/6 setup: "an open defect injected at
    the least significant bit of the row address decoder".  The open is
    spliced in series with the gate of the LSB phase inverter, so the
    complement phase ``a0b`` lags the true phase -- the select/deselect
    hazard.  ``erc=False`` skips the post-injection ERC gate.
    """
    base = build_decoder_netlist(tech, vdd, address_bits=address_bits)
    faulty = base.with_open("INVA0_P", "gate", defect.resistance,
                            name="Ropen_a0_p")
    # The same break feeds both devices of the inverter (one physical
    # via): splice the NMOS gate onto the same floating node.
    import dataclasses

    from repro.circuit.devices import Capacitor

    nmos = faulty["INVA0_N"]
    pmos = faulty["INVA0_P"]
    faulty._devices["INVA0_N"] = dataclasses.replace(nmos, gate=pmos.gate)
    # Gate capacitance of the inverter pair: together with the open's
    # resistance this forms the RC that delays the complement phase --
    # the select/deselect hazard of the paper's Figures 5/6.
    faulty.add(Capacitor("Cgate_open", pmos.gate, "0",
                         3.0 * tech.gate_capacitance))
    if erc:
        _erc_check(faulty, tech)
    return faulty
