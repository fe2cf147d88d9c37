"""The 6T SRAM cell: netlist builder and electrical analysis.

The cell model serves two purposes:

* Build the transistor-level netlist of a 6T cell (with word line, bit
  lines and optional defects) for the Spice-like solver -- this is the
  unit the paper's IFA flow simulates per injected defect.
* Closed-form, first-order electrical figures of merit (static noise
  margin, critical bridge resistance, read current) used to calibrate the
  fast behavioural defect models in :mod:`repro.defects.behavior` so that
  population-scale campaigns do not need per-cycle Newton solves.

Node naming convention inside one cell: ``t`` (true storage node), ``c``
(complement node), ``bl``/``blb`` (bit lines), ``wl`` (word line) -- all
prefixed by the cell instance name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.circuit.devices import Capacitor, Mosfet, MosType, VoltageSource
from repro.circuit.netlist import Netlist
from repro.circuit.solver import ConvergenceError, dc_operating_point, transient
from repro.circuit.technology import Technology


@dataclass(frozen=True)
class CellRatios:
    """Transistor sizing of a 6T cell.

    Typical embedded-SRAM sizing: pull-down strongest, access in between,
    pull-up weakest.  The ratios determine read stability (beta ratio =
    pull-down / access) and writability (gamma ratio = access / pull-up).

    Attributes:
        pull_down: NMOS driver width multiplier.
        access: NMOS pass-gate width multiplier.
        pull_up: PMOS load width multiplier.
    """

    pull_down: float = 2.0
    access: float = 1.2
    pull_up: float = 1.0

    def __post_init__(self) -> None:
        if min(self.pull_down, self.access, self.pull_up) <= 0:
            raise ValueError("transistor widths must be positive")


class SixTCell:
    """A 6T SRAM cell bound to a technology and sizing.

    Args:
        tech: Process corner.
        ratios: Transistor sizing.

    Netlist node and device names carry the instance prefix ``cell``.
    """

    def __init__(self, tech: Technology,
                 ratios: CellRatios | None = None) -> None:
        self.tech = tech
        self.ratios = ratios if ratios is not None else CellRatios()
        self.name = "cell"

    # ------------------------------------------------------------------
    # Netlist construction
    # ------------------------------------------------------------------
    def node(self, suffix: str) -> str:
        return f"{self.name}.{suffix}"

    def build(self, netlist: Netlist, vdd_node: str = "vdd") -> None:
        """Add the six transistors of this cell to ``netlist``.

        External nodes: ``<name>.t``, ``<name>.c`` (storage),
        ``<name>.bl``, ``<name>.blb`` (bit lines), ``<name>.wl``
        (word line); supply comes from ``vdd_node``.
        """
        t, c = self.node("t"), self.node("c")
        bl, blb, wl = self.node("bl"), self.node("blb"), self.node("wl")
        r = self.ratios
        tech = self.tech
        n = self.name
        netlist.extend([
            # Cross-coupled inverter pair.
            Mosfet(f"{n}.MPU_T", MosType.PMOS, t, c, vdd_node, r.pull_up, tech),
            Mosfet(f"{n}.MPD_T", MosType.NMOS, t, c, "0", r.pull_down, tech),
            Mosfet(f"{n}.MPU_C", MosType.PMOS, c, t, vdd_node, r.pull_up, tech),
            Mosfet(f"{n}.MPD_C", MosType.NMOS, c, t, "0", r.pull_down, tech),
            # Access transistors.
            Mosfet(f"{n}.MAX_T", MosType.NMOS, bl, wl, t, r.access, tech),
            Mosfet(f"{n}.MAX_C", MosType.NMOS, blb, wl, c, r.access, tech),
        ])

    def standalone_netlist(self, vdd: float, state: int) -> Netlist:
        """A self-contained cell netlist with supply and terminal drivers.

        The cell holds: its word line is driven to 0 V and both bit
        lines to ``vdd`` (the precharge condition).

        Args:
            vdd: Supply voltage.
            state: Stored value seeding the bistable solve (1 -> ``t``
                high).

        Returns:
            Netlist ready for DC/transient analysis.
        """
        nl = Netlist(f"{self.name}@{vdd:.2f}V")
        nl.add(VoltageSource("Vdd", "vdd", "0", vdd))
        self.build(nl, "vdd")
        nl.add(VoltageSource("Vwl", self.node("wl"), "0", 0.0))
        nl.add(VoltageSource("Vbl", self.node("bl"), "0", vdd))
        nl.add(VoltageSource("Vblb", self.node("blb"), "0", vdd))
        # Storage-node capacitances (junction + gate loading).  Besides
        # realism they let the transient-settle fallback of solve_state
        # walk the cell to a *stable* equilibrium when the DC solve lands
        # near the saddle point of a nearly-critical defect.
        nl.add(Capacitor("Ct", self.node("t"), "0",
                         4.0 * self.tech.junction_capacitance))
        nl.add(Capacitor("Cc", self.node("c"), "0",
                         4.0 * self.tech.junction_capacitance))
        return nl

    def seed(self, state: int, vdd: float) -> dict[str, float]:
        """Initial node voltages selecting the stored state."""
        t_v = vdd if state else 0.0
        return {self.node("t"): t_v, self.node("c"): vdd - t_v}

    # ------------------------------------------------------------------
    # Electrical analysis
    # ------------------------------------------------------------------
    def solve_state(self, vdd: float, state: int,
                    extra: Netlist | None = None) -> dict[str, float]:
        """DC solution of the (optionally defective) cell holding ``state``.

        Args:
            vdd: Supply.
            state: Seeded stored value.
            extra: A pre-built netlist to solve instead of the pristine
                standalone cell (e.g. one returned by
                ``standalone_netlist(...).with_bridge(...)``).
        """
        nl = extra if extra is not None else self.standalone_netlist(vdd, state)
        seed = self.seed(state, vdd)
        try:
            return dc_operating_point(nl, initial=seed)
        except ConvergenceError:
            # Near-critical defects put the DC solution close to the
            # cell's saddle point where Newton stalls; integrate the
            # actual settling dynamics instead (the storage-node caps in
            # standalone_netlist provide the time constants).
            waves = transient(nl, t_stop=5e-9, dt=2.5e-11, initial=seed,
                              uic=True)
            return {node: wf.settle_value() for node, wf in waves.items()}

    def holds_state(self, op: dict[str, float], state: int,
                    vdd: float) -> bool:
        """Interpret a DC solution: does the cell still store ``state``?

        Decision threshold is vdd/2 on both storage nodes, requiring them
        to be complementary.
        """
        t_v, c_v = op[self.node("t")], op[self.node("c")]
        t_bit = 1 if t_v >= vdd / 2 else 0
        c_bit = 1 if c_v >= vdd / 2 else 0
        return t_bit == state and c_bit == (1 - state)

    def retention_upset_resistance(self, vdd: float, state: int,
                                   to_rail: str) -> float:
        """Critical bridge resistance that upsets the *held* cell.

        Bisects over the bridge resistance between the high storage node
        and a rail until the stored state flips; this is the quantity
        whose Vdd dependence makes VLV testing effective (paper
        Section 4.1): lower Vdd weakens the restoring transistor, so
        bridges of *higher* resistance become detectable.

        Args:
            vdd: Supply voltage.
            state: Stored value under attack.
            to_rail: ``"gnd"`` bridges the high node to ground;
                ``"vdd"`` bridges the low node to the supply.

        Returns:
            The critical resistance in ohms (bridges below it flip the
            cell), bisected between 1 ohm (certain upset) and 1 Gohm
            (certain survival).  Returns 1 Gohm when even that
            resistance upsets the cell, 1 ohm when even a hard short
            does not.
        """
        r_lo, r_hi = 1.0, 1e9
        if to_rail not in ("gnd", "vdd"):
            raise ValueError("to_rail must be 'gnd' or 'vdd'")
        high_node = self.node("t") if state else self.node("c")
        low_node = self.node("c") if state else self.node("t")

        def upset(r: float) -> bool:
            base = self.standalone_netlist(vdd, state)
            if to_rail == "gnd":
                faulty = base.with_bridge(high_node, "0", r)
            else:
                faulty = base.with_bridge(low_node, "vdd", r)
            op = self.solve_state(vdd, state, extra=faulty)
            return not self.holds_state(op, state, vdd)

        if not upset(r_lo):
            return r_lo
        if upset(r_hi):
            return r_hi
        lo, hi = r_lo, r_hi  # upset(lo) True, upset(hi) False
        for _ in range(40):
            mid = math.sqrt(lo * hi)
            if upset(mid):
                lo = mid
            else:
                hi = mid
            if hi / lo < 1.02:
                break
        return math.sqrt(lo * hi)
