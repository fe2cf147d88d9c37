"""Soak test: a campaign looped under sustained fault injection.

Marked ``slow``: run explicitly with ``pytest -m slow`` or through
``scripts/soak.sh``.  Kept short enough for tier-1, but the point is
the *shape* -- repeated kill/heal cycles against one checkpoint, with
chaos at every layer at once -- rather than a single curated failure.
"""

import dataclasses
import json

import pytest

from repro.circuit.technology import CMOS018
from repro.defects.models import DefectKind
from repro.ifa.flow import IfaCampaign
from repro.memory.geometry import MemoryGeometry
from repro.runner.campaign import CampaignRunner, SweepSpec
from repro.runner.chaos import (
    InjectedCrash,
)
from repro.stress import production_conditions

from ..injectors import scheduled_injector

GEOM = MemoryGeometry(16, 2, 4)
N_SITES = 30
SEED = 23


def make_campaign(injector=None):
    campaign = IfaCampaign(GEOM, CMOS018, n_sites=N_SITES, seed=SEED)
    campaign.injector = injector
    return campaign


def spec():
    conds = tuple(production_conditions(CMOS018).values())
    return SweepSpec.of(DefectKind.BRIDGE, (20.0, 1e3, 10e3, 90e3), conds)


@pytest.mark.slow
def test_campaign_survives_repeated_crashes_and_faults(tmp_path):
    """Crash every ~150 evaluations, with transient faults throughout;
    the checkpoint must converge to the clean-run records."""
    baseline = CampaignRunner(make_campaign()).run([spec()])
    ck = tmp_path / "soak.json"

    result = None
    crashes = 0
    for round_no in range(40):  # far more rounds than ever needed
        inj = scheduled_injector(
            seed=1000 + round_no,
            rates={"behavior.evaluate": 0.01},
            crash_positions={"behavior.evaluate": {150}},
        )
        runner = CampaignRunner(make_campaign(inj), max_attempts=4,
                                checkpoint_path=ck)
        try:
            result = runner.run([spec()])
            break
        except InjectedCrash:
            crashes += 1
    else:
        pytest.fail("campaign never completed")

    assert crashes > 0, "soak never exercised a crash"
    # Transient chaos may quarantine the odd site (conservative records)
    # but counts must stay consistent and most sites must be healthy.
    assert len(result.records) == len(baseline.records)
    for got, want in zip(result.records, baseline.records):
        assert got.total == want.total
        assert got.detected + got.errors <= got.total
        assert got.errors <= 2
    quarantined = sum(r.errors for r in result.records)
    assert quarantined == len(result.quarantine)


@pytest.mark.slow
def test_clean_soak_converges_byte_identical(tmp_path):
    """Without transient faults (crashes only), the converged records
    are byte-identical to an uninterrupted run."""
    baseline = CampaignRunner(make_campaign()).run([spec()])
    ck = tmp_path / "soak.json"

    result = None
    for round_no in range(40):
        inj = scheduled_injector(
            crash_positions={"behavior.evaluate": {111}})
        runner = CampaignRunner(make_campaign(inj), checkpoint_path=ck)
        try:
            result = runner.run([spec()])
            break
        except InjectedCrash:
            continue
    else:
        pytest.fail("campaign never completed")

    def as_bytes(records):
        return json.dumps([dataclasses.asdict(r) for r in records],
                          sort_keys=True).encode()

    assert as_bytes(result.records) == as_bytes(baseline.records)
