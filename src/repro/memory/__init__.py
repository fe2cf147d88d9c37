"""SRAM model: geometry, 6T cell, periphery and the full device.

Implements the memory under test: the four-parameter geometry of the
paper's estimator (#X rows, #Y columns, #B bits, #Z blocks), the 6T cell
with transistor-level analysis, the row-decoder netlist of the
resistive-open transient of Figures 5/6, sense amplifier, precharge, and
the :class:`~repro.memory.sram.Sram` device-under-test binding them all.
"""
