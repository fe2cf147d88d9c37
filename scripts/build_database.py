"""Rebuild the shipped pre-calculated coverage database.

Usage:  python scripts/build_database.py [output_path]

Runs the full IFA campaign (6000 sites, seed 2005) over the Veqtor4
geometry for both defect kinds across the production stress suite, and
writes the JSON the package ships as ``repro/data/cmos018_coverage.json``.
"""

import sys

import numpy as np

from repro.circuit.technology import CMOS018
from repro.core.database import CoverageDatabase
from repro.defects.models import DefectKind
from repro.ifa.flow import IfaCampaign
from repro.memory.geometry import VEQTOR4_INSTANCE
from repro.stress import production_conditions


def main() -> None:
    out = sys.argv[1] if len(sys.argv) > 1 else \
        "src/repro/data/cmos018_coverage.json"
    campaign = IfaCampaign(VEQTOR4_INSTANCE, CMOS018, n_sites=6000,
                           seed=2005)
    conditions = list(production_conditions(CMOS018).values())
    database = CoverageDatabase()
    bridge_rs = np.unique(np.concatenate(
        [np.logspace(1, 6, 21), [20.0, 1e3, 10e3, 90e3]]))
    database.add_records(
        campaign.run(sorted(bridge_rs), conditions, DefectKind.BRIDGE))
    database.add_records(
        campaign.run(np.logspace(3.5, 7.5, 17), conditions,
                     DefectKind.OPEN))
    database.save(out)
    print(f"{len(database)} records -> {out}")


if __name__ == "__main__":
    main()
