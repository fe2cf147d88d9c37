"""Resistive defect models, fab statistics and stress-dependent behaviour.

The paper's soft defects: resistive bridges and opens with a site
taxonomy tied to SRAM structure, lognormal-mixture resistance
distributions standing in for fab data, Poisson defect density/yield,
and the calibrated :class:`~repro.defects.behavior.DefectBehaviorModel`
that decides how each defect manifests at each stress condition.
"""
