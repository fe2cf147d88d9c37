"""Circuit substrate: technology, compact devices, netlist and solver.

This package is the library's "Spice-like simulator" (paper Section 2):
alpha-power-law MOSFETs, linear R/C elements, a flat netlist container
with one-defect-at-a-time injection, and a damped-Newton MNA solver with
backward-Euler transient analysis.
"""
