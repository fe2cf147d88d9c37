"""Waveform container and measurement helpers.

Transient results from :mod:`repro.circuit.solver` come back as
:class:`Waveform` objects.  The measurement helpers implement the checks
the paper's simulation figures rely on: logic-level sampling at read
strobes (Figures 5/6 show the decoder-open defect producing a wrong value
at outputs q1/q2 during one unique clock cycle) and threshold-crossing
delay extraction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Waveform:
    """A sampled voltage-versus-time trace for one node.

    Attributes:
        node: Node name.
        time: Monotonically increasing sample times in seconds.
        voltage: Sample values in volts, same length as ``time``.
    """

    node: str
    time: np.ndarray
    voltage: np.ndarray

    def __post_init__(self) -> None:
        self.time = np.asarray(self.time, dtype=float)
        self.voltage = np.asarray(self.voltage, dtype=float)
        if self.time.shape != self.voltage.shape:
            raise ValueError("time and voltage arrays must have equal length")
        if self.time.size < 1:
            raise ValueError("waveform must contain at least one sample")
        if np.any(np.diff(self.time) < 0):
            raise ValueError("time axis must be non-decreasing")

    def __len__(self) -> int:
        return int(self.time.size)

    def at(self, t: float) -> float:
        """Linearly interpolated voltage at time ``t`` (clamped to range)."""
        return float(np.interp(t, self.time, self.voltage))

    def min(self) -> float:
        return float(self.voltage.min())

    def max(self) -> float:
        return float(self.voltage.max())

    def settle_value(self) -> float:
        """Mean of the last 5 % of samples (steady-state value)."""
        n = max(1, int(len(self.voltage) * 0.05))
        return float(self.voltage[-n:].mean())


def piecewise_linear(points: list[tuple[float, float]]):
    """Build a PWL stimulus from ``(time, voltage)`` breakpoints."""
    if len(points) < 2:
        raise ValueError("PWL stimulus needs at least two points")
    times = np.asarray([p[0] for p in points])
    volts = np.asarray([p[1] for p in points])
    if np.any(np.diff(times) < 0):
        raise ValueError("PWL breakpoints must be time-ordered")

    def f(t: float) -> float:
        return float(np.interp(t, times, volts))

    return f
