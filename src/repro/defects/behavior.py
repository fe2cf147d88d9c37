"""Defect behaviour under stress: the electrical manifestation engine.

This module answers the library's central question: *given a resistive
defect and a stress condition (Vdd, clock period), does the defect
produce observable faulty behaviour -- and of what kind?*

It is the behavioural ("pre-calculated") counterpart of the paper's
per-defect analogue simulations: the closed-form detection criteria below
are first-order electrical models whose parameters were calibrated
against (a) the transistor-level 6T-cell analysis in
:mod:`repro.memory.cell` for qualitative trends and (b) the paper's
published numbers for quantitative anchors (Table 1 coverage pattern,
Figure 8's 4 MOhm @ 50 MHz / 1.5 MOhm @ 100 MHz thresholds, the Chip-1..4
shmoo signatures).  Every constant lives in :class:`BehaviorParams` so
ablation studies can move it.

Mechanisms implemented (paper cross-references):

* **Bridge = voltage divider** (Section 4.1): a storage-node bridge
  fights the restoring transistor, whose effective strength scales as
  ``(Vdd - VT_eff)^alpha / Vdd``; the critical (largest detectable)
  resistance therefore *rises steeply* as Vdd approaches VT_eff -- VLV
  detects high-ohmic bridges that all other corners miss.
* **Read-SNM collapse at VLV**: node-to-node bridges only upset the cell
  when the read noise margin is already marginal, i.e. below a supply
  threshold around 1.2 V.
* **Decoder-open select hazard** (Section 4.2, Figures 5/6): disturb
  current through the hazard grows superlinearly with Vdd while margins
  grow linearly -- detection only *above* a critical supply (Vmax-only
  class, frequency independent).
* **Open = RC delay** (Section 4.3, Figure 8): a resistive open adds
  ``R * C`` to a path; it is detected only when the added delay exceeds
  the slack at the test period, hence the detectable-resistance floor
  drops as frequency rises.
* **Retention weakening** (pull-up opens): the restore loses to leakage
  at VLV; at strongly elevated supply the defect's leakage path becomes
  visible again -- producing devices that fail both VLV *and* Vmax, the
  overlap classes of the paper's Figure 11 Venn diagram.

:meth:`DefectBehaviorModel.fails_condition` is the oracle of the one
vectorised detection kernel, which answers a site x R grid
(:meth:`~DefectBehaviorModel.evaluate_batch`) or aligned defect arrays
(:meth:`~DefectBehaviorModel.evaluate_elements`) bit for bit.

Exact-path equivalence: tests/defects/test_behavior.py
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from typing import Any

import numpy as np

from repro.circuit.technology import Technology
from repro.defects.models import (
    SITE_CODES,
    BridgeSite,
    Defect,
    DefectKind,
    OpenSite,
)
from repro.memory.sram import TimingModel
from repro.stress import StressCondition


class FaultMode(Enum):
    """How a manifested defect misbehaves functionally."""

    CELL_STUCK = "cell_stuck"          # cell reads/holds a fixed value
    CELL_FLIP = "cell_flip"            # stored value upset (read disturb)
    READ_DELAY = "read_delay"          # reads of the victim return stale data
    ADDRESS_HAZARD = "address_hazard"  # decoder dual-select disturb
    WRITE_FAIL = "write_fail"          # writes to the victim do not land
    RETENTION = "retention"            # cell leaks its state


@dataclass(frozen=True)
class Manifestation:
    """Observable faulty behaviour of a defect at one stress condition.

    Attributes:
        mode: Functional fault mode.
        cell: Victim flat cell index.
        stuck_value: For CELL_STUCK/CELL_FLIP: the value the cell tends
            to (the paper's Chip-1 shows stuck-at-1-like behaviour at
            VLV only).
        severity: Margin ratio (how far past the detection threshold the
            condition sits); >= 1 means manifest.  Reported for
            diagnosis and shmoo sharpness.
    """

    mode: FaultMode
    cell: int
    stuck_value: int = 0
    severity: float = 1.0


@dataclass(frozen=True)
class BehaviorParams:
    """Calibration constants of the behavioural defect models.

    Bridge classes (critical resistance = strength * base(V)):

    Attributes:
        rail_c: CELL_NODE_RAIL scale (ohms) -- base R_crit at the shape
            function's unity point; calibrated so R_crit(1.8 V) is
            ~87 kOhm, which reproduces Table 1's 90 kOhm column.
        rail_vt_eff: Effective threshold of the restoring path (V);
            above a single-device VT because of stacking/body effect.
            Controls how fast R_crit rises at VLV.
        rail_alpha: Exponent of the restoring-drive collapse.
        snm_r_hi: CELL_NODE_NODE critical resistance when the read noise
            margin has collapsed (VLV regime).
        snm_r_lo: Same, in the stable regime (Vmin and above).
        snm_v_mid: Supply at which the read-SNM collapse transition sits.
        snm_v_width: Width of that transition.
        wordline_r: WORDLINE_CELL critical resistance in the VLV regime.
        wordline_v_mid: Supply below which the weak restore loses.
        bitline_r: BITLINE_BITLINE critical resistance.
        bitline_v_mask: Supply above which stronger precharge/development
            masks the bridge (mean; site spread applies).
        bitline_v_sigma: Site spread of the masking voltage.
        bitline_atspeed_r: Below this resistance the bridge also slows
            differential development enough to fail at-speed.
        decoder_r: DECODER_LOGIC critical resistance (weak V dependence).
        periphery_r: PERIPHERY_METAL critical resistance.

    Open classes:

    Attributes:
        seg_c: BITLINE_SEGMENT effective capacitance (F) -- R*C is the
            added delay; 4 fF reproduces Figure 8's frequency thresholds.
        seg_t0: Fault-free segment path delay at nominal supply (s).
        access_c: CELL_ACCESS effective capacitance (F).
        access_t0: Fault-free develop time at nominal supply (s).
        access_vlv_blowup: Extra develop-time factor at VLV (read current
            collapse) -- creates the VLV+at-speed overlap class.
        pullup_r_vlv: CELL_PULLUP resistance above which retention fails
            at VLV.
        pullup_r_vmax: Resistance above which the leakage path shows at
            Vmax (>= pullup_r_vlv: such devices fail both).
        dec_v_base: DECODER_INPUT median detection voltage at the
            reference resistance.
        dec_v_slope: Detection-voltage decrease per decade of R.
        dec_r_ref: Reference resistance of the decoder-open model.
        dec_v_spread: Site spread of the detection voltage.
        dec_flip_c: Scale of the disturbed cell's flip time (s) in the
            dual-select hazard; calibrated against the transistor-level
            decoder simulation (Figures 5/6 bench).
        dec_flip_vt: Effective threshold of the disturb path (V).
        periphery_c: PERIPHERY_PATH effective capacitance (F); the delay
            scales with gate delay (voltage dependent, Chip-4).
        periphery_t0: Fault-free periphery path delay at nominal (s).

    Temperature stress (relative to the 25 C calibration point):

    Attributes:
        temp_vt_coeff: Threshold-voltage decrease per Kelvin (V/K).
            Cold test -> higher VT -> steeper VLV advantage; hot ->
            stronger restore at low supply.
        temp_delay_coeff: Fractional delay increase per Kelvin
            (mobility degradation); hot testing tightens timing slack,
            helping at-speed detection.
        temp_retention_doubling: Temperature step (K) that doubles cell
            leakage; hot testing halves the pull-up-open resistance
            needed to fail retention.
    """

    # Bridges ---------------------------------------------------------
    rail_c: float = 58.5e3
    rail_vt_eff: float = 0.70
    rail_alpha: float = 2.0
    snm_r_hi: float = 220e3
    snm_r_lo: float = 250.0
    snm_v_mid: float = 1.25
    snm_v_width: float = 0.05
    wordline_r: float = 1.0e6
    wordline_v_mid: float = 1.20
    wordline_v_width: float = 0.03
    bitline_r: float = 40e3
    bitline_v_mask: float = 1.875
    bitline_v_sigma: float = 0.05
    bitline_atspeed_r: float = 5e3
    decoder_r: float = 25e3
    periphery_r: float = 120.0
    # Opens -----------------------------------------------------------
    seg_c: float = 4e-15
    seg_t0: float = 4e-9
    access_c: float = 1e-15
    access_t0: float = 3e-9
    access_vlv_blowup: float = 4.0
    pullup_r_vlv: float = 1.5e6
    pullup_r_vmax: float = 6.0e6
    dec_v_base: float = 1.80
    dec_v_slope: float = 0.35
    dec_r_ref: float = 1.0e6
    dec_v_spread: float = 0.40
    dec_flip_c: float = 0.68e-9
    dec_flip_vt: float = 0.80
    periphery_c: float = 2e-15
    periphery_t0: float = 4e-9
    # Temperature (relative to the 25 C calibration point) ------------
    temp_vt_coeff: float = 1.0e-3
    temp_delay_coeff: float = 2.0e-3
    temp_retention_doubling: float = 20.0


#: Default calibration (CMOS 0.18 um; see class docstring).
DEFAULT_PARAMS = BehaviorParams()


def _sigmoid(x: float) -> float:
    if x > 40.0:
        return 1.0
    if x < -40.0:
        return 0.0
    return 1.0 / (1.0 + math.exp(-x))


class DefectBehaviorModel:
    """Evaluate defect manifestation under stress conditions.

    Args:
        tech: Technology corner (supplies the VLV/Vnom/... anchors and
            the alpha-power scaling of fault-free delays).
        timing: The SRAM's calibrated critical-path model, used to scale
            fault-free path delays with supply voltage.
        params: Calibration constants (defaults reproduce the paper).
    """

    def __init__(self, tech: Technology,
                 timing: TimingModel | None = None,
                 params: BehaviorParams | None = None) -> None:
        self.tech = tech
        self.timing = timing if timing is not None else TimingModel()
        self.params = params if params is not None else DEFAULT_PARAMS

    # ------------------------------------------------------------------
    # Voltage scaling helpers
    # ------------------------------------------------------------------
    def _delay_scale(self, vdd: float, temperature: float = 25.0) -> float:
        """Fault-free path-delay multiplier relative to the nominal
        supply at 25 C (temperature degrades mobility)."""
        scale = self.timing.logic_scale(vdd, self.tech.vdd_nominal)
        return scale * self._temp_delay_factor(temperature)

    def _temp_delay_factor(self, temperature: float) -> float:
        return 1.0 + self.params.temp_delay_coeff * (temperature - 25.0)

    def _temp_vt_shift(self, temperature: float) -> float:
        """Threshold reduction at elevated temperature (V)."""
        return self.params.temp_vt_coeff * (temperature - 25.0)

    def _temp_leak_factor(self, temperature: float) -> float:
        return 2.0 ** ((temperature - 25.0)
                       / self.params.temp_retention_doubling)

    def _site_z(self, defect: Defect, sigma: float) -> float:
        """Normalised site deviation from the defect's strength factor."""
        return math.log(defect.strength) / sigma if sigma > 0 else 0.0

    # ------------------------------------------------------------------
    # Bridge critical resistance
    # ------------------------------------------------------------------
    def bridge_critical_resistance(self, site: BridgeSite, vdd: float,
                                   strength: float = 1.0,
                                   temperature: float = 25.0) -> float:
        """Largest detectable bridge resistance at a supply voltage.

        The per-class base curves below are the "database" distilled
        from defect simulation; ``strength`` shifts a specific site
        around its class median; ``temperature`` shifts the restoring
        path's effective threshold (cold testing widens the VLV reach,
        [Schanstra 99]'s stress-combination axis).
        """
        p = self.params
        if site is BridgeSite.CELL_NODE_RAIL:
            vt_eff = p.rail_vt_eff - self._temp_vt_shift(temperature)
            if vdd <= vt_eff:
                return math.inf
            shape = vdd / (vdd - vt_eff) ** p.rail_alpha
            return strength * p.rail_c * shape
        if site is BridgeSite.CELL_NODE_NODE:
            frac = _sigmoid((p.snm_v_mid - vdd) / p.snm_v_width)
            return strength * (p.snm_r_lo + (p.snm_r_hi - p.snm_r_lo) * frac)
        if site is BridgeSite.WORDLINE_CELL:
            frac = _sigmoid((p.wordline_v_mid - vdd) / p.wordline_v_width)
            return strength * p.wordline_r * frac
        if site is BridgeSite.BITLINE_BITLINE:
            return strength * p.bitline_r
        if site is BridgeSite.DECODER_LOGIC:
            # Contention between full static drivers: weak V dependence.
            return strength * p.decoder_r * (1.0 + 0.1 * (self.tech.vdd_nominal - vdd))
        if site is BridgeSite.PERIPHERY_METAL:
            return strength * p.periphery_r
        if site is BridgeSite.EQUIVALENT_NODE:
            return 0.0
        raise ValueError(f"unknown bridge site {site}")

    # ------------------------------------------------------------------
    # Manifestation
    # ------------------------------------------------------------------
    def manifestation(self, defect: Defect,
                      condition: StressCondition) -> Manifestation | None:
        """Observable behaviour of ``defect`` at ``condition``.

        Returns ``None`` when the defect stays silent (a test escape at
        this condition).
        """
        if defect.kind is DefectKind.BRIDGE:
            return self._bridge_manifestation(defect, condition)
        return self._open_manifestation(defect, condition)

    def _bridge_manifestation(self, defect: Defect,
                              condition: StressCondition) -> Manifestation | None:
        p = self.params
        site = defect.site
        vdd = condition.vdd

        if site is BridgeSite.BITLINE_BITLINE:
            # Voltage mechanism: masked above a site-specific supply.
            v_mask = (p.bitline_v_mask
                      + p.bitline_v_sigma * self._site_z(defect, 0.5))
            r_crit = self.bridge_critical_resistance(
                site, vdd, defect.strength, condition.temperature)
            if vdd <= v_mask and defect.resistance <= r_crit:
                return Manifestation(
                    FaultMode.CELL_FLIP, defect.cell,
                    stuck_value=0 if defect.polarity < 0 else 1,
                    severity=r_crit / defect.resistance,
                )
            # Timing mechanism: the shunt slows differential development.
            r_as = p.bitline_atspeed_r * defect.strength
            develop_need = self._delay_scale(vdd, condition.temperature)
            if (defect.resistance <= r_as
                    and condition.period < 25e-9 * develop_need):
                return Manifestation(
                    FaultMode.READ_DELAY, defect.cell,
                    severity=r_as / defect.resistance,
                )
            return None

        r_crit = self.bridge_critical_resistance(
            site, vdd, defect.strength, condition.temperature)
        if defect.resistance > r_crit:
            return None
        stuck = 1 if defect.polarity > 0 else 0
        if site in (BridgeSite.DECODER_LOGIC, BridgeSite.PERIPHERY_METAL):
            return Manifestation(FaultMode.ADDRESS_HAZARD, defect.cell,
                                 stuck_value=stuck,
                                 severity=r_crit / defect.resistance)
        return Manifestation(FaultMode.CELL_STUCK, defect.cell,
                             stuck_value=stuck,
                             severity=r_crit / defect.resistance)

    def _open_manifestation(self, defect: Defect,
                            condition: StressCondition) -> Manifestation | None:
        p = self.params
        site = defect.site
        vdd, period = condition.vdd, condition.period
        scale = self._delay_scale(vdd, condition.temperature)
        if math.isinf(scale):
            # Below the path threshold the whole chip fails anyway; the
            # ATE's fault-free timing check covers this region.
            return None

        if site is OpenSite.BITLINE_SEGMENT:
            # Added delay R*C vs slack; the fault-free segment delay is
            # wire-RC dominated and therefore voltage independent --
            # which is exactly why Chip-3's shmoo boundary is vertical.
            added = defect.resistance * p.seg_c * defect.strength
            path = p.seg_t0
            if path + added > period:
                return Manifestation(FaultMode.READ_DELAY, defect.cell,
                                     severity=(path + added) / period)
            return None

        if site is OpenSite.CELL_ACCESS:
            added = defect.resistance * p.access_c * defect.strength
            develop = p.access_t0 * scale
            # Read-current collapse at VLV blows up the develop time.
            if vdd <= self.tech.vdd_vlv + 0.15:
                develop *= p.access_vlv_blowup
            window = 0.35 * period
            if develop + added > window:
                return Manifestation(FaultMode.READ_DELAY, defect.cell,
                                     severity=(develop + added) / window)
            return None

        if site is OpenSite.CELL_PULLUP:
            # Hot testing: leakage doubles every temp_retention_doubling
            # Kelvin, so weaker (lower-R) pull-up opens already fail.
            leak = self._temp_leak_factor(condition.temperature)
            r_vlv = p.pullup_r_vlv * defect.strength / leak
            r_vmax = p.pullup_r_vmax * defect.strength / leak
            if vdd <= self.tech.vdd_vlv + 0.1 and defect.resistance >= r_vlv:
                return Manifestation(FaultMode.RETENTION, defect.cell,
                                     stuck_value=0,
                                     severity=defect.resistance / r_vlv)
            if vdd >= self.tech.vdd_max - 1e-9 and defect.resistance >= r_vmax:
                return Manifestation(FaultMode.CELL_STUCK, defect.cell,
                                     stuck_value=0,
                                     severity=defect.resistance / r_vmax)
            return None

        if site is OpenSite.DECODER_INPUT:
            v_detect = self.decoder_open_detection_voltage(defect)
            if vdd >= v_detect:
                return Manifestation(FaultMode.ADDRESS_HAZARD, defect.cell,
                                     severity=vdd / v_detect)
            return None

        if site is OpenSite.PERIPHERY_PATH:
            # Gate-delay-scaled added delay: the boundary moves with
            # voltage (Chip-4).
            added = defect.resistance * p.periphery_c * defect.strength * scale
            path = p.periphery_t0 * scale
            if path + added > period:
                return Manifestation(FaultMode.READ_DELAY, defect.cell,
                                     severity=(path + added) / period)
            return None

        raise ValueError(f"unknown open site {site}")

    def decoder_disturb_flip_time(self, vdd: float) -> float:
        """Time a dual-select hazard must persist to flip a victim cell.

        The disturb current grows superlinearly with supply while the
        charge needed grows only linearly, so the flip time *falls* with
        Vdd -- the reason the decoder-open hazard is detected at Vmax but
        escapes at Vnom and VLV (paper Figures 5/6).  Compare against the
        hazard window measured by the transistor-level decoder
        simulation.
        """
        p = self.params
        if vdd <= p.dec_flip_vt:
            return math.inf
        return p.dec_flip_c * vdd / (vdd - p.dec_flip_vt) ** 2

    def decoder_open_delay_manifests(self, defect: Defect,
                                     condition: StressCondition) -> bool:
        """At-speed delay mechanism of a decoder-input open.

        Beyond the voltage hazard (detection above ``v_detect``), the
        open's RC lag on its address bit creates an *address-transition
        delay fault* when the lag eats the address-settle budget of the
        clock period.  Detection additionally requires single-bit
        transition sensitisation -- i.e. the MOVI procedure
        ([Azimane 04]); a linear march misses every bit above 0, so this
        mechanism is intentionally NOT part of :meth:`fails_condition`
        (the production flow of the paper ran linear patterns).
        """
        if defect.site is not OpenSite.DECODER_INPUT:
            raise ValueError("defect is not a decoder-input open")
        lag = (defect.resistance * 3.0 * self.tech.gate_capacitance
               * defect.strength)
        budget = 0.3 * condition.period
        return lag > budget

    def decoder_open_detection_voltage(self, defect: Defect) -> float:
        """Supply voltage above which a decoder-input open is detected.

        Falls with log-resistance (a more resistive open produces a wider
        hazard window) and varies per site; clamped below so that a
        fully broken input (R -> inf) is detected at any usable supply.
        """
        if defect.site is not OpenSite.DECODER_INPUT:
            raise ValueError("defect is not a decoder-input open")
        p = self.params
        v = (p.dec_v_base
             + p.dec_v_spread * self._site_z(defect, 0.5)
             - p.dec_v_slope * math.log10(defect.resistance / p.dec_r_ref))
        return max(v, 0.5 * self.tech.vdd_vlv)

    # ------------------------------------------------------------------
    # Fast detection predicate
    # ------------------------------------------------------------------
    def fails_condition(self, defect: Defect,
                        condition: StressCondition) -> bool:
        """Does the defect make the device fail a (both-polarity-reading,
        both-direction-marching) test at this condition?

        This is the population fast path: every manifested mode is
        detectable by the paper's 11N test, so manifestation implies
        detection.  Cycle-accurate confirmation is available through
        :func:`repro.defects.injection.to_functional_fault` plus the
        virtual tester.
        """
        return self.manifestation(defect, condition) is not None

    def open_detection_threshold(self, period: float,
                                 vdd: float | None = None,
                                 site: OpenSite = OpenSite.BITLINE_SEGMENT,
                                 strength: float = 1.0) -> float:
        """Smallest detectable open resistance at a test period.

        The quantity plotted in the paper's Figure 8: at 50 MHz only
        opens above ~4 MOhm are caught; at 100 MHz the floor drops to
        ~1.5 MOhm.
        """
        p = self.params
        vdd = self.tech.vdd_nominal if vdd is None else vdd
        scale = self._delay_scale(vdd)
        if site is OpenSite.BITLINE_SEGMENT:
            slack = period - p.seg_t0
            cap = p.seg_c * strength
        elif site is OpenSite.CELL_ACCESS:
            slack = 0.35 * period - p.access_t0 * scale
            cap = p.access_c * strength
        elif site is OpenSite.PERIPHERY_PATH:
            slack = period - p.periphery_t0 * scale
            cap = p.periphery_c * strength * scale
        else:
            raise ValueError(f"{site} is not a delay-type open class")
        if slack <= 0.0:
            return 0.0
        return slack / cap

    # ------------------------------------------------------------------
    # Vectorised evaluation: one kernel, two shapes
    # ------------------------------------------------------------------
    def evaluate_batch(self, sites: Sequence[Defect],
                       resistances: Sequence[float],
                       condition: StressCondition) -> np.ndarray:
        """Vectorised :meth:`fails_condition` over a site x R grid.

        Answers one whole (kind, condition) sweep group in a single
        call: element ``[i, j]`` is exactly
        ``fails_condition(sites[i].with_resistance(resistances[j]),
        condition)``.  *Exactly* means bit-identical, not approximately
        equal: the per-class kernel (:meth:`_class_kernel`) replays the
        scalar arithmetic of :meth:`manifestation` with the same operand
        grouping and the same comparison operators, restricted to
        IEEE-754-exact elementwise numpy operations (``+ - * /``,
        comparisons, ``maximum``).  Transcendentals (``log``, ``log10``,
        ``exp``, ``**``) are never vectorised -- numpy's implementations
        may differ from :mod:`math` by an ulp, enough to flip a boundary
        cell -- and are instead computed per element through the
        identical :mod:`math` calls the scalar path makes.  This is the
        kernel's grid shape (strengths ``[:, None]`` against resistances
        ``[None, :]``); :meth:`evaluate_elements` is its elementwise
        shape.  See ``docs/batch_kernel.md`` for the full contract.

        The grid evaluator (:class:`~repro.perf.batch.BatchEvaluator`)
        requires this kernel: it calls it once per (kind, condition)
        group and cross-checks a seeded cell sample against
        ``fails_condition``, so a lying implementation is demoted site
        by site rather than believed.

        Args:
            sites: Site population (each defect's ``resistance`` field
                is ignored; site class and ``strength`` matter).
            resistances: Resistance grid of the sweep group (ohms).
            condition: The stress condition shared by the whole group.

        Returns:
            Boolean array of shape ``(len(sites), len(resistances))``.

        Raises:
            ValueError: a site's class is unknown to the model (the
                scalar path raises identically, per site).
        """
        r = np.asarray(resistances, dtype=float)
        out = np.zeros((len(sites), r.size), dtype=bool)
        all_strengths = np.fromiter((d.strength for d in sites),
                                    dtype=float, count=len(sites))
        by_class: dict[Any, list[int]] = {}
        for i, defect in enumerate(sites):
            by_class.setdefault(defect.site, []).append(i)
        for site_class, indices in by_class.items():
            out[indices] = self._class_kernel(
                site_class, all_strengths[indices][:, None], r[None, :],
                condition)
        return out

    def evaluate_elements(self, codes: np.ndarray, strengths: np.ndarray,
                          resistances: np.ndarray,
                          condition: StressCondition) -> np.ndarray:
        """Vectorised :meth:`fails_condition` over aligned defect arrays.

        The kernel's elementwise shape: element ``i`` is exactly
        ``fails_condition(d_i, condition)`` for the defect of site
        ``SITE_CODES[codes[i]]``, strength ``strengths[i]`` and
        resistance ``resistances[i]`` -- bit-identical, under the same
        op-order rules as :meth:`evaluate_batch`.  One kernel call per
        site class present.  Lot classification and the test-plan
        table require it, and :meth:`fails_condition` stays the oracle
        they are tested against.

        Args:
            codes: Site codes (indices into
                :data:`~repro.defects.models.SITE_CODES`), 1-D.
            strengths: Per-defect strength factors, aligned with
                ``codes``.
            resistances: Per-defect resistances (ohms), aligned.
            condition: The stress condition.

        Returns:
            Boolean array of shape ``codes.shape``.
        """
        out = np.zeros(codes.shape, dtype=bool)
        # bincount, not np.unique: the latter imports numpy.ma (~2 MB
        # of resident memory) on first use.
        present = np.flatnonzero(np.bincount(codes, minlength=len(SITE_CODES)))
        for code in present.tolist():
            idx = np.flatnonzero(codes == code)
            out[idx] = self._class_kernel(SITE_CODES[code], strengths[idx],
                                          resistances[idx], condition)
        return out

    def _class_kernel(self, site: BridgeSite | OpenSite,
                      strengths: np.ndarray, r: np.ndarray,
                      condition: StressCondition) -> np.ndarray:
        """Detection bits of one site class, op-order-exact.

        ``strengths`` and ``r`` broadcast against each other; the
        result has their broadcast shape.
        """
        if isinstance(site, BridgeSite):
            return self._bridge_kernel(site, strengths, r, condition)
        if isinstance(site, OpenSite):
            return self._open_kernel(site, strengths, r, condition)
        raise ValueError(f"unknown defect site {site}")

    def _bridge_kernel(self, site: BridgeSite, strengths: np.ndarray,
                       r: np.ndarray,
                       condition: StressCondition) -> np.ndarray:
        p = self.params
        vdd = condition.vdd

        if site is BridgeSite.BITLINE_BITLINE:
            # Union of the voltage and timing mechanisms of
            # _bridge_manifestation; the site spread mirrors
            # _site_z(d, 0.5) bit-for-bit.
            z = _per_element(math.log, strengths) / 0.5
            v_mask = p.bitline_v_mask + p.bitline_v_sigma * z
            r_crit = strengths * p.bitline_r
            r_as = p.bitline_atspeed_r * strengths
            develop_need = self._delay_scale(vdd, condition.temperature)
            timing_armed = condition.period < 25e-9 * develop_need
            voltage = (vdd <= v_mask) & (r <= r_crit)
            timing = (r <= r_as) & timing_armed
            return voltage | timing

        r_crit = self._bridge_kernel_critical(site, strengths, vdd,
                                              condition.temperature)
        # Mirrors "if defect.resistance > r_crit: return None".
        return ~(r > r_crit)

    def _bridge_kernel_critical(self, site: BridgeSite,
                                strengths: np.ndarray, vdd: float,
                                temperature: float) -> np.ndarray:
        """Per-site critical resistances, exactly as the scalar path.

        Every class keeps :meth:`bridge_critical_resistance`'s operand
        grouping: ``strength * p.rail_c * shape`` is computed as
        ``(strengths * p.rail_c) * shape``, never re-associated --
        float multiplication is commutative but not associative, and
        regrouping could flip a boundary comparison.
        """
        p = self.params
        if site is BridgeSite.CELL_NODE_RAIL:
            vt_eff = p.rail_vt_eff - self._temp_vt_shift(temperature)
            if vdd <= vt_eff:
                return np.full(strengths.shape, math.inf)
            shape = vdd / (vdd - vt_eff) ** p.rail_alpha
            return (strengths * p.rail_c) * shape
        if site is BridgeSite.CELL_NODE_NODE:
            frac = _sigmoid((p.snm_v_mid - vdd) / p.snm_v_width)
            return strengths * (p.snm_r_lo
                                + (p.snm_r_hi - p.snm_r_lo) * frac)
        if site is BridgeSite.WORDLINE_CELL:
            frac = _sigmoid((p.wordline_v_mid - vdd) / p.wordline_v_width)
            return (strengths * p.wordline_r) * frac
        if site is BridgeSite.DECODER_LOGIC:
            return (strengths * p.decoder_r) * (
                1.0 + 0.1 * (self.tech.vdd_nominal - vdd))
        if site is BridgeSite.PERIPHERY_METAL:
            return strengths * p.periphery_r
        if site is BridgeSite.EQUIVALENT_NODE:
            return np.zeros(strengths.shape)
        raise ValueError(f"unknown bridge site {site}")

    def _open_kernel(self, site: OpenSite, strengths: np.ndarray,
                     r: np.ndarray,
                     condition: StressCondition) -> np.ndarray:
        p = self.params
        vdd, period = condition.vdd, condition.period
        scale = self._delay_scale(vdd, condition.temperature)
        if math.isinf(scale):
            # Below the path threshold every open is silent.
            return np.zeros(np.broadcast_shapes(strengths.shape, r.shape),
                            dtype=bool)

        if site is OpenSite.BITLINE_SEGMENT:
            # added = (resistance * seg_c) * strength, grouped exactly
            # as the scalar left-associative product.
            added = (r * p.seg_c) * strengths
            return p.seg_t0 + added > period

        if site is OpenSite.CELL_ACCESS:
            added = (r * p.access_c) * strengths
            develop = p.access_t0 * scale
            if vdd <= self.tech.vdd_vlv + 0.15:
                develop *= p.access_vlv_blowup
            window = 0.35 * period
            return develop + added > window

        if site is OpenSite.CELL_PULLUP:
            leak = self._temp_leak_factor(condition.temperature)
            r_vlv = (p.pullup_r_vlv * strengths) / leak
            r_vmax = (p.pullup_r_vmax * strengths) / leak
            out = np.zeros(np.broadcast_shapes(strengths.shape, r.shape),
                           dtype=bool)
            if vdd <= self.tech.vdd_vlv + 0.1:
                out |= r >= r_vlv
            if vdd >= self.tech.vdd_max - 1e-9:
                out |= r >= r_vmax
            return out

        if site is OpenSite.DECODER_INPUT:
            # Both transcendental factors go through the identical math
            # calls the scalar path makes: per strength for the spread
            # (_site_z(d, 0.5)), per resistance for the log term.
            z = _per_element(math.log, strengths) / 0.5
            l10 = _per_element(math.log10, r / p.dec_r_ref)
            v = (p.dec_v_base + p.dec_v_spread * z) - p.dec_v_slope * l10
            v_detect = np.maximum(v, 0.5 * self.tech.vdd_vlv)
            return vdd >= v_detect

        if site is OpenSite.PERIPHERY_PATH:
            added = ((r * p.periphery_c) * strengths) * scale
            path = p.periphery_t0 * scale
            return path + added > period

        raise ValueError(f"unknown open site {site}")


def _per_element(fn: Any, values: np.ndarray) -> np.ndarray:
    """``fn`` applied through :mod:`math`, one exact double at a time.

    ``tolist()`` hands back the exact doubles, so each element is
    bit-identical to the scalar path's call on the same value.
    """
    return np.array([fn(v) for v in values.ravel().tolist()],
                    dtype=float).reshape(values.shape)
