"""Nonlinear DC and transient solver (the "Spice-like simulator").

The paper simulates each faulty netlist with an analogue simulator.  Our
equivalent is a small modified-nodal-analysis (MNA) engine:

* :func:`dc_operating_point` -- damped Newton-Raphson with GMIN stepping
  and source ramping, robust enough for the bistable 6T cell circuits the
  library builds.
* :func:`transient` -- backward-Euler integration over piecewise-linear
  stimulus, sufficient for the decoder-open waveform experiments
  (paper Figures 5 and 6) where we care about *whether* a degraded level
  or delayed edge crosses a logic threshold, not about picosecond
  accuracy.

The solver works on :class:`repro.circuit.netlist.Netlist` objects and
returns plain ``dict[node] -> voltage`` maps or
:class:`repro.circuit.waveform.Waveform` traces.
"""

from __future__ import annotations

import math

import numpy as np

from repro.circuit.devices import (
    Capacitor,
    CurrentSource,
    Mosfet,
    Resistor,
    VoltageSource,
)
from repro.circuit.netlist import GROUND, Netlist
from repro.circuit.waveform import Waveform


class ConvergenceError(RuntimeError):
    """Raised when Newton iteration fails to converge."""


class _System:
    """Node indexing and MNA stamping for one netlist."""

    def __init__(self, netlist: Netlist) -> None:
        self.netlist = netlist
        self.nodes = netlist.nodes
        self.index = {n: i for i, n in enumerate(self.nodes)}
        self.n = len(self.nodes)
        self.vsources = list(netlist.devices_of_type(VoltageSource))
        # Voltage sources get auxiliary current unknowns (MNA).
        self.m = len(self.vsources)
        # Nodeset: GMIN conductances pull toward these voltages rather
        # than toward ground, so seeded states (e.g. an SRAM cell's
        # stored value) survive GMIN stepping instead of being erased.
        self.nodeset = np.zeros(self.n)

    def idx(self, node: str) -> int:
        """Matrix index of a node; -1 denotes ground."""
        if node == GROUND:
            return -1
        return self.index[node]

    def voltages(self, x: np.ndarray) -> dict[str, float]:
        out = {GROUND: 0.0}
        for node, i in self.index.items():
            out[node] = float(x[i])
        return out

    # ------------------------------------------------------------------
    def build(
        self,
        x: np.ndarray,
        t: float,
        gmin: float,
        prev_x: np.ndarray | None = None,
        dt: float | None = None,
        source_scale: float = 1.0,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Assemble the Newton Jacobian J and residual f at state ``x``.

        When ``prev_x``/``dt`` are given, capacitors are stamped with a
        backward-Euler companion model; otherwise they are open (DC).
        """
        size = self.n + self.m
        jac = np.zeros((size, size))
        res = np.zeros(size)

        def v(node_i: int) -> float:
            return 0.0 if node_i < 0 else float(x[node_i])

        def stamp_g(a: int, b: int, g: float) -> None:
            if a >= 0:
                jac[a, a] += g
            if b >= 0:
                jac[b, b] += g
            if a >= 0 and b >= 0:
                jac[a, b] -= g
                jac[b, a] -= g

        def stamp_i(a: int, b: int, i: float) -> None:
            """Current i flowing from node a to node b."""
            if a >= 0:
                res[a] += i
            if b >= 0:
                res[b] -= i

        # GMIN from every node toward its nodeset voltage: conditions the
        # matrix like classic GMIN-to-ground but preserves seeded states
        # of bistable circuits during GMIN stepping.
        for i in range(self.n):
            jac[i, i] += gmin
            res[i] += gmin * (x[i] - self.nodeset[i])

        for dev in self.netlist.devices():
            if isinstance(dev, Resistor):
                a, b = self.idx(dev.node_a), self.idx(dev.node_b)
                g = dev.conductance
                stamp_g(a, b, g)
                stamp_i(a, b, g * (v(a) - v(b)))
            elif isinstance(dev, Capacitor):
                a, b = self.idx(dev.node_a), self.idx(dev.node_b)
                if prev_x is not None and dt is not None:
                    geq = dev.capacitance / dt

                    def pv(node_i: int) -> float:
                        return 0.0 if node_i < 0 else float(prev_x[node_i])

                    ieq = geq * ((v(a) - v(b)) - (pv(a) - pv(b)))
                    stamp_g(a, b, geq)
                    stamp_i(a, b, ieq)
            elif isinstance(dev, CurrentSource):
                a, b = self.idx(dev.node_pos), self.idx(dev.node_neg)
                stamp_i(a, b, dev.value * source_scale)
            elif isinstance(dev, Mosfet):
                d, g_, s = self.idx(dev.drain), self.idx(dev.gate), self.idx(dev.source)
                vgs = v(g_) - v(s)
                vds = v(d) - v(s)
                ids, gm, gds = dev.ids_and_conductances(vgs, vds)
                # Current flows drain -> source for NMOS-positive ids.
                stamp_i(d, s, ids)
                # Jacobian: dI/dVd, dI/dVg, dI/dVs.
                for node_i, dcur in ((d, gds), (g_, gm), (s, -(gds + gm))):
                    if node_i < 0:
                        continue
                    if d >= 0:
                        jac[d, node_i] += dcur
                    if s >= 0:
                        jac[s, node_i] -= dcur

        # Voltage sources: auxiliary current rows.
        for k, src in enumerate(self.vsources):
            row = self.n + k
            p, q = self.idx(src.node_pos), self.idx(src.node_neg)
            target = src.voltage_at(t) * source_scale
            if p >= 0:
                jac[p, row] += 1.0
                jac[row, p] += 1.0
                res[p] += x[row]
            if q >= 0:
                jac[q, row] -= 1.0
                jac[row, q] -= 1.0
                res[q] -= x[row]
            res[row] += (v(p) - v(q)) - target

        return jac, res


def _newton(
    system: _System,
    x0: np.ndarray,
    t: float,
    gmin: float,
    prev_x: np.ndarray | None = None,
    dt: float | None = None,
    source_scale: float = 1.0,
    max_iter: int = 120,
    tol: float = 1e-7,
) -> np.ndarray:
    x = x0.copy()
    max_step = math.inf
    for iteration in range(max_iter):
        jac, res = system.build(x, t, gmin, prev_x, dt, source_scale)
        try:
            delta = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"singular Jacobian: {exc}") from exc
        max_step = float(np.max(np.abs(delta))) if delta.size else 0.0
        if max_step < tol:
            return x
        # Damping: limit per-iteration voltage movement to 0.5 V, and
        # after the first iterations progressively shrink steps.  The
        # shrinking turns the period-2 limit cycles Newton falls into
        # near bistability saddles (derivative kinks of the compact
        # models) into contractions while leaving easy solves untouched.
        scale = 1.0
        if max_step > 0.5:
            scale = 0.5 / max_step
        if iteration >= 12:
            scale *= 0.5
        if iteration >= 40:
            scale *= 0.5
        x = x + scale * delta
        if max_step * scale < tol:
            return x
    raise ConvergenceError(
        f"Newton failed after {max_iter} iterations (last step {max_step:.3g})"
    )


def dc_operating_point(
    netlist: Netlist,
    initial: dict[str, float] | None = None,
    tol: float = 1e-7,
    relaxed_tol: float | None = 1e-5,
) -> dict[str, float]:
    """Solve the DC operating point of a netlist.

    Uses GMIN stepping (1e-3 down to 1e-12) and, as a fallback, source
    ramping, mirroring the continuation strategies of production SPICE
    engines.  ``initial`` seeds node voltages -- essential for bistable
    circuits such as SRAM cells, where the seed selects the stored state.

    Campaign-facing degradation: when every strategy fails at the
    requested ``tol``, the whole ladder is retried once at
    ``relaxed_tol`` before surfacing :class:`ConvergenceError`.  A long
    coverage campaign prefers a slightly less precise operating point
    on one pathological faulty netlist over aborting the sweep -- the
    detection thresholds the campaign compares against are orders of
    magnitude coarser than either tolerance.  Pass ``relaxed_tol=None``
    for strict single-tolerance behaviour.

    Returns:
        Mapping of node name to voltage (includes ground = 0.0).

    Raises:
        ConvergenceError: if no strategy converges at any tolerance.
    """
    try:
        return _dc_solve(netlist, initial, tol)
    except ConvergenceError:
        if relaxed_tol is None or relaxed_tol <= tol:
            raise
        return _dc_solve(netlist, initial, relaxed_tol)


def _dc_solve(
    netlist: Netlist,
    initial: dict[str, float] | None,
    tol: float,
) -> dict[str, float]:
    """One pass of the DC strategy ladder at a fixed tolerance."""
    system = _System(netlist)
    size = system.n + system.m
    x = np.zeros(size)
    if initial:
        for node, volt in initial.items():
            if node in system.index:
                x[system.index[node]] = volt
                system.nodeset[system.index[node]] = volt

    last_error: ConvergenceError | None = None
    best_x = x.copy()
    # Strategy 1: GMIN stepping (finer ladder than production SPICE since
    # the compact models are cheap to evaluate).
    try:
        for gmin in (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-9, 1e-12):
            x = _newton(system, x, t=0.0, gmin=gmin, tol=tol)
            best_x = x.copy()
        return system.voltages(x)
    except ConvergenceError as exc:
        last_error = exc

    # Strategy 2: source ramping from 10% to 100%.
    x = np.zeros(size)
    if initial:
        for node, volt in initial.items():
            if node in system.index:
                x[system.index[node]] = volt
    try:
        for scale in np.linspace(0.1, 1.0, 10):
            x = _newton(system, x, t=0.0, gmin=1e-9,
                        source_scale=float(scale), tol=tol)
        return system.voltages(x)
    except ConvergenceError as exc:
        last_error = exc

    # Strategy 3: hand the residual to scipy's root finders, starting
    # from the furthest point the GMIN ladder reached.
    from scipy import optimize

    def fun(xv: np.ndarray) -> np.ndarray:
        _, res = system.build(xv, 0.0, 1e-9)
        return res

    def jacf(xv: np.ndarray) -> np.ndarray:
        jac, _ = system.build(xv, 0.0, 1e-9)
        return jac

    residual_ok = max(1e-8, 0.1 * tol)
    for method in ("hybr", "lm"):
        sol = optimize.root(fun, best_x, jac=jacf, method=method)
        if float(np.linalg.norm(fun(sol.x))) < residual_ok:
            return system.voltages(sol.x)
    raise ConvergenceError(
        f"DC solution failed at tol={tol:g} "
        f"(newton strategies: {last_error}; "
        f"scipy residual {float(np.linalg.norm(fun(sol.x))):.3g})"
    )


def _timestep(system: _System, x: np.ndarray, t_from: float, dt: float,
              depth: int = 0) -> np.ndarray:
    """One backward-Euler step with recursive halving on non-convergence.

    GMIN is raised slightly on the retry levels; combined with the
    smaller dt (larger capacitor companion conductance) this resolves the
    stiff crossings near bistability saddles.
    """
    try:
        return _newton(system, x, t=t_from + dt, gmin=1e-12, prev_x=x, dt=dt)
    except ConvergenceError:
        if depth >= 8:
            raise
        half = dt / 2.0
        x_mid = _timestep(system, x, t_from, half, depth + 1)
        return _timestep(system, x_mid, t_from + half, half, depth + 1)


def transient(
    netlist: Netlist,
    t_stop: float,
    dt: float,
    initial: dict[str, float] | None = None,
    record: list[str] | None = None,
    uic: bool = False,
) -> dict[str, Waveform]:
    """Backward-Euler transient analysis.

    Args:
        netlist: Circuit to simulate; time-varying ``VoltageSource``
            waveforms provide the stimulus.
        t_stop: End time in seconds.
        dt: Fixed timestep in seconds.
        initial: Seed voltages for the initial DC solve (or, with
            ``uic``, the literal initial condition).
        record: Node names to record (default: all nodes).
        uic: Use initial conditions directly (SPICE ``.tran ... uic``):
            skip the t=0 DC solve and start integrating from ``initial``.
            The robust choice when the DC problem itself is near a
            bistability saddle.

    Returns:
        Mapping node -> :class:`Waveform` sampled every ``dt``.
    """
    if t_stop <= 0 or dt <= 0:
        raise ValueError("t_stop and dt must be positive")
    system = _System(netlist)
    record = record if record is not None else system.nodes

    if uic:
        op = dict(initial or {})
        op.setdefault(GROUND, 0.0)
    else:
        op = dc_operating_point(netlist, initial=initial)
    x = np.zeros(system.n + system.m)
    for node, i in system.index.items():
        x[i] = op.get(node, 0.0)

    times = [0.0]
    samples: dict[str, list[float]] = {n: [op.get(n, 0.0)] for n in record}

    steps = int(round(t_stop / dt))
    for step in range(1, steps + 1):
        t = step * dt
        x = _timestep(system, x, t - dt, dt)
        volts = system.voltages(x)
        times.append(t)
        for node in record:
            samples[node].append(volts.get(node, 0.0))

    time_arr = np.asarray(times)
    return {
        node: Waveform(node, time_arr, np.asarray(vals))
        for node, vals in samples.items()
    }
