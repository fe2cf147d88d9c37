"""Virtual tester: ATE, shmoo plots and fail-bitmap diagnosis.

The experimental half of the paper: apply march tests at stress
conditions, sweep the (Vdd, period) plane into shmoo plots, and reason
from fail bitmaps back to defect classes.
"""
