"""Fault-free timing of the SRAM's critical path.

The access-time model is ``t_acc(V) = t_logic(V) + t_wire`` with
``t_logic ∝ V / (V - VT_path)^alpha`` (alpha-power delay scaling of the
critical path) -- calibrated so the nominal access time matches the
paper's memory (5..10 ns at 1.8 V) and the fault-free SRAM still passes
a 100 ns cycle at the 1.0 V VLV condition, as in Figure 3.

A part that misses timing fails a condition whatever its defects, so
the behaviour model, the virtual ATE's :class:`~repro.memory.sram.Sram`
and the lot classifier all read the one rule here
(:meth:`TimingModel.meets_timing`).  The module needs nothing but
``math``: the lot imports it without the cell or circuit models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Guard band of the shortest passing clock period over the access time.
PERIOD_MARGIN = 1.05


@dataclass(frozen=True)
class TimingModel:
    """Calibrated access-time model of the critical path.

    Attributes:
        t_logic_nominal: Logic/cell part of the access time at the
            technology's nominal supply (s).
        t_wire: Supply-independent wire-RC part (s).
        vt_path: Effective threshold of the critical path (V) -- higher
            than a single device VT because of stacking/body effect;
            controls how steeply delay grows at low Vdd.
        alpha: Alpha-power exponent of the path.
    """

    t_logic_nominal: float = 6e-9
    t_wire: float = 2e-9
    vt_path: float = 0.6
    alpha: float = 1.3

    def logic_scale(self, vdd: float, vdd_nominal: float) -> float:
        """Delay multiplier relative to nominal supply."""
        if vdd <= self.vt_path:
            return math.inf

        def shape(v: float) -> float:
            return v / (v - self.vt_path) ** self.alpha

        return shape(vdd) / shape(vdd_nominal)

    def access_time(self, vdd: float, vdd_nominal: float) -> float:
        scale = self.logic_scale(vdd, vdd_nominal)
        if math.isinf(scale):
            return math.inf
        return self.t_logic_nominal * scale + self.t_wire

    def min_period(self, vdd: float, vdd_nominal: float) -> float:
        """Shortest passing clock period at ``vdd`` (fault-free)."""
        return PERIOD_MARGIN * self.access_time(vdd, vdd_nominal)

    def meets_timing(self, vdd: float, vdd_nominal: float,
                     period: float) -> bool:
        """Fault-free pass/fail at one (Vdd, period) shmoo point."""
        return period >= self.min_period(vdd, vdd_nominal)
