"""Deliberately broken inputs for demos, docs and CI smoke tests.

``python -m repro lint netlist:demo-broken`` lints
:func:`demo_broken_netlist` and must exit 2 with NET001 and NET003
findings -- the canary asserting the ERC path stays wired end to end.
"""

from __future__ import annotations

from repro.circuit.devices import Mosfet, MosType, Resistor
from repro.circuit.netlist import Netlist
from repro.circuit.technology import CMOS018, Technology
from repro.memory.cell import SixTCell


def demo_broken_netlist(tech: Technology = CMOS018) -> Netlist:
    """A 6T-cell netlist with two classic construction bugs.

    * ``Mstray`` has its gate on ``floating_gate``, a node nothing
      drives (NET001 floating node, NET002 dangling net);
    * ``Rbridge_bad`` bridges the storage node to ``no_such_net``, a
      net that exists nowhere in the base circuit (NET003).
    """
    cell = SixTCell(tech)
    nl = cell.standalone_netlist(tech.vdd_nominal, 1)
    nl.title = "demo-broken"
    nl.add(Mosfet("Mstray", MosType.NMOS, cell.node("t"), "floating_gate",
                  "0", 1.0, tech))
    nl.add(Resistor("Rbridge_bad", cell.node("t"), "no_such_net", 1e3))
    return nl
