"""Inductive fault analysis: synthetic layout, critical area, extraction.

Stands in for the paper's layout-based IFA flow (PIA + bridge/open
extraction): a structurally faithful synthetic SRAM layout, classic
critical-area weighting, site classification onto the defect taxonomy,
and the one-defect-at-a-time coverage campaign that fills the estimator's
pre-calculated database.
"""
