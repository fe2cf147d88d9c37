"""Core contribution: the fault coverage and DPM estimator.

The paper's deliverable to its customers: an IFA-backed pre-calculated
coverage database, the four-parameter estimator on top of it
(fault coverage, defect coverage, Williams-Brown DPM per stress
condition), and the end-to-end memory test flow that builds everything
from a memory geometry.
"""
