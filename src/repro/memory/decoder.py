"""Address decoder netlist for the Figure 5/6 transient.

Resistive opens in the address decoder are a centrepiece of the paper:
Figure 5/6 show an open injected at the least-significant bit of the row
address decoder that escapes the test at Vnom and VLV but is detected at
Vmax, and the cited [Azimane 04] methodology targets exactly this defect
class.  :func:`build_decoder_netlist` is a transistor-level netlist of a
small NAND-style decoder slice (pre-decoder inverters + NAND + word-line
driver), with well-defined device names so opens can be spliced in via
:meth:`repro.circuit.netlist.Netlist.with_open` -- the circuit used by
the Figure 5/6 reproduction benches.  The behavioural tier's
decoder-open timing is
:meth:`repro.defects.behavior.DefectBehaviorModel.decoder_open_delay_manifests`.
"""

from __future__ import annotations

from repro.circuit.devices import Capacitor, Mosfet, MosType, VoltageSource
from repro.circuit.netlist import Netlist
from repro.circuit.technology import Technology


def build_decoder_netlist(
    tech: Technology,
    vdd: float,
    address_bits: int = 2,
    wordline_load: float = 20e-15,
) -> Netlist:
    """Transistor-level netlist of a NAND row-decoder slice.

    Structure per word line ``wl<i>``: a static CMOS NAND of the
    (possibly inverted) address bits followed by an inverting word-line
    driver.  Address inputs are nodes ``a0..a<k-1>`` driven by voltage
    sources named ``Va0..`` so test benches can attach waveforms;
    inverted phases ``a0b..`` are generated on-chip by inverters
    ``INVA<j>_{P,N}`` -- splicing an open into the LSB inverter input
    (device ``INVA0_P``/``INVA0_N``, terminal ``gate``) reproduces the
    paper's Figure 5/6 defect.

    Returns:
        The fault-free netlist; inject defects with ``with_open`` /
        ``with_bridge``.
    """
    if address_bits < 1 or address_bits > 4:
        raise ValueError("netlist builder supports 1..4 address bits")
    nl = Netlist(f"rowdec{address_bits}@{vdd:.2f}V")
    nl.add(VoltageSource("Vdd", "vdd", "0", vdd))

    # Address inputs and their on-chip complements.
    for j in range(address_bits):
        nl.add(VoltageSource(f"Va{j}", f"a{j}", "0", 0.0))
        nl.add(Mosfet(f"INVA{j}_P", MosType.PMOS, f"a{j}b", f"a{j}", "vdd",
                      2.0, tech))
        nl.add(Mosfet(f"INVA{j}_N", MosType.NMOS, f"a{j}b", f"a{j}", "0",
                      1.0, tech))
        nl.add(Capacitor(f"Ca{j}b", f"a{j}b", "0", 2e-15))

    n_rows = 1 << address_bits
    for row in range(n_rows):
        phases = [
            f"a{j}" if (row >> j) & 1 else f"a{j}b"
            for j in range(address_bits)
        ]
        nand_out = f"nand{row}"
        # PMOS pull-ups in parallel.
        for j, phase in enumerate(phases):
            nl.add(Mosfet(f"NAND{row}_P{j}", MosType.PMOS, nand_out, phase,
                          "vdd", 1.5, tech))
        # NMOS pull-down stack in series.
        prev = nand_out
        for j, phase in enumerate(phases):
            nxt = "0" if j == address_bits - 1 else f"nand{row}_s{j}"
            nl.add(Mosfet(f"NAND{row}_N{j}", MosType.NMOS, prev, phase, nxt,
                          2.0, tech))
            prev = nxt
        nl.add(Capacitor(f"Cnand{row}", nand_out, "0", 1.5e-15))
        # Word-line driver (inverter, upsized).
        nl.add(Mosfet(f"WLDRV{row}_P", MosType.PMOS, f"wl{row}", nand_out,
                      "vdd", 4.0, tech))
        nl.add(Mosfet(f"WLDRV{row}_N", MosType.NMOS, f"wl{row}", nand_out,
                      "0", 2.0, tech))
        nl.add(Capacitor(f"Cwl{row}", f"wl{row}", "0", wordline_load))
    return nl


def decoder_input_waveforms(address_sequence: list[int], period: float,
                            vdd: float, address_bits: int):
    """Per-input PWL stimulus for a sequence of addresses.

    Returns a dict ``input-name -> waveform callable`` where address *i*
    of the sequence is applied during cycle *i* (``[i*period,
    (i+1)*period)``), with fast linear edges at the cycle boundaries.
    """
    from repro.circuit.waveform import piecewise_linear

    if period <= 0:
        raise ValueError("period must be positive")
    edge = min(0.02 * period, 0.2e-9)
    waves = {}
    for j in range(address_bits):
        points = [(0.0, float((address_sequence[0] >> j) & 1) * vdd)]
        for i in range(1, len(address_sequence)):
            prev_bit = (address_sequence[i - 1] >> j) & 1
            bit = (address_sequence[i] >> j) & 1
            t = i * period
            if bit != prev_bit:
                points.append((t, prev_bit * vdd))
                points.append((t + edge, bit * vdd))
        points.append((len(address_sequence) * period, points[-1][1]))
        waves[f"a{j}"] = piecewise_linear(points)
    return waves
