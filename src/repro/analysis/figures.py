"""Figure renderers: text reproductions of the paper's plots.

Shmoo plots render themselves (:meth:`repro.tester.shmoo.ShmooPlot.render`);
this module adds the remaining figures: the Figure 8 open-detection
curve, waveform strip charts for the Figure 5/6 decoder-open
simulations, and the Figure 11 Venn comparison.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.circuit.waveform import Waveform
from repro.experiment.venn import VennCounts


def render_frequency_curve(frequencies_hz: Sequence[float],
                           thresholds_ohm: Sequence[float]) -> str:
    """Render detectable-open-resistance vs frequency as a text chart."""
    if len(frequencies_hz) != len(thresholds_ohm):
        raise ValueError("axes must have equal length")
    lines = ["Resistive open detection vs test frequency (Figure 8)",
             f"{'freq':>10}  {'R_min detect':>14}  "]
    finite = [t for t in thresholds_ohm if t > 0 and np.isfinite(t)]
    top = max(finite) if finite else 1.0
    for f, t in zip(frequencies_hz, thresholds_ohm):
        if t <= 0 or not np.isfinite(t):
            bar, label = "", "(all escape)"
        else:
            bar = "#" * max(1, int(40 * t / top))
            label = f"{t / 1e6:8.2f} Mohm"
        lines.append(f"{f / 1e6:8.0f}MHz  {label:>14}  {bar}")
    return "\n".join(lines)


#: Characters per strip-chart row.
WAVEFORM_COLUMNS = 72


def render_waveforms(waves: dict[str, Waveform], vdd: float,
                     title: str = "") -> str:
    """Strip-chart rendering of transient waveforms (Figures 5/6 style).

    Each node gets one row of :data:`WAVEFORM_COLUMNS` characters
    sampled uniformly in time:
    ``#`` above 0.7 Vdd, ``.`` below 0.3 Vdd, ``-`` in between.
    """
    lines = [title] if title else []
    for node, wf in waves.items():
        t_lo, t_hi = float(wf.time[0]), float(wf.time[-1])
        samples = np.linspace(t_lo, t_hi, WAVEFORM_COLUMNS)
        chars = []
        for t in samples:
            v = wf.at(float(t))
            if v >= 0.7 * vdd:
                chars.append("#")
            elif v <= 0.3 * vdd:
                chars.append(".")
            else:
                chars.append("-")
        lines.append(f"{node:>12} |{''.join(chars)}|")
    if waves:
        any_wf = next(iter(waves.values()))
        lines.append(
            f"{'':>12}  t = {any_wf.time[0] * 1e9:.1f} .. "
            f"{any_wf.time[-1] * 1e9:.1f} ns"
        )
    return "\n".join(lines)


def render_venn_comparison(simulated: VennCounts, paper: VennCounts) -> str:
    """Side-by-side Venn region counts, simulated vs paper (Figure 11)."""
    lines = [f"{'region':>18}  {'simulated':>9}  {'paper':>5}"]
    for label in simulated.as_dict():
        lines.append(
            f"{label:>18}  {simulated.as_dict()[label]:>9}  "
            f"{paper.as_dict()[label]:>5}"
        )
    lines.append(
        f"{'total':>18}  {simulated.total:>9}  {paper.total:>5}"
    )
    return "\n".join(lines)
