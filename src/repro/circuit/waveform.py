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

    def settle_value(self, fraction: float = 0.05) -> float:
        """Mean of the last ``fraction`` of samples (steady-state value)."""
        n = max(1, int(len(self.voltage) * fraction))
        return float(self.voltage[-n:].mean())


def pulse(v_low: float, v_high: float, t_start: float, t_width: float,
          t_edge: float = 1e-10):
    """Build a single-pulse stimulus callable for a ``VoltageSource``.

    The pulse rises at ``t_start``, stays high for ``t_width`` and falls
    back; edges are linear ramps of ``t_edge`` seconds.
    """
    if t_width <= 0 or t_edge <= 0:
        raise ValueError("t_width and t_edge must be positive")

    def f(t: float) -> float:
        if t < t_start:
            return v_low
        if t < t_start + t_edge:
            return v_low + (v_high - v_low) * (t - t_start) / t_edge
        if t < t_start + t_edge + t_width:
            return v_high
        if t < t_start + 2 * t_edge + t_width:
            return v_high - (v_high - v_low) * (
                t - t_start - t_edge - t_width) / t_edge
        return v_low

    return f


def clock(v_low: float, v_high: float, period: float, duty: float = 0.5,
          t_edge: float = 1e-10):
    """Build a periodic clock stimulus callable."""
    if period <= 0 or not 0.0 < duty < 1.0:
        raise ValueError("period must be positive and 0 < duty < 1")
    high_time = period * duty

    def f(t: float) -> float:
        phase = t % period
        if phase < t_edge:
            return v_low + (v_high - v_low) * phase / t_edge
        if phase < high_time:
            return v_high
        if phase < high_time + t_edge:
            return v_high - (v_high - v_low) * (phase - high_time) / t_edge
        return v_low

    return f


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
