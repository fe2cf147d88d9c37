"""Memory BIST: the on-chip test engine the paper's test chip lacked.

March-microcoded controller with comparator and MISR response modes,
plus the LFSR/MISR signature primitives.  Runs against the same SRAM
model and stress conditions as the virtual ATE, so the stress-condition
methodology can be exercised the way production SoCs deploy it.
"""
