"""Tests for repro.ifa.flow -- the coverage campaign and its Table 1
regression against the paper."""

import pytest

from repro.circuit.technology import CMOS018
from repro.core.records import CoverageRecord
from repro.defects.models import DefectKind
from repro.ifa.flow import TABLE1_RESISTANCES, IfaCampaign
from repro.memory.geometry import VEQTOR4_INSTANCE, MemoryGeometry
from repro.stress import production_conditions

#: The paper's Table 1 fault-coverage percentages (bridges, 0.18 um).
PAPER_TABLE1_FC = {
    (20.0, "VLV"): 99.61, (20.0, "Vmin"): 97.76,
    (20.0, "Vnom"): 97.58, (20.0, "Vmax"): 95.65,
    (1e3, "VLV"): 98.57, (1e3, "Vmin"): 86.95,
    (1e3, "Vnom"): 87.90, (1e3, "Vmax"): 87.89,
    (10e3, "VLV"): 98.57, (10e3, "Vmin"): 86.95,
    (10e3, "Vnom"): 86.95, (10e3, "Vmax"): 87.82,
    (90e3, "VLV"): 88.90, (90e3, "Vmin"): 77.91,
    (90e3, "Vnom"): 30.81, (90e3, "Vmax"): 1.22,
}


@pytest.fixture(scope="module")
def campaign():
    return IfaCampaign(VEQTOR4_INSTANCE, CMOS018, n_sites=3000, seed=2005)


@pytest.fixture(scope="module")
def table_conditions():
    conds = production_conditions(CMOS018)
    return [conds[k] for k in ("VLV", "Vmin", "Vnom", "Vmax")]


@pytest.fixture(scope="module")
def bridge_records(campaign, table_conditions):
    return campaign.run(TABLE1_RESISTANCES, table_conditions)


class TestCampaignMechanics:
    def test_record_grid_complete(self, bridge_records):
        keys = {(r.resistance, r.condition) for r in bridge_records}
        assert len(keys) == 16
        assert all(r.total == 3000 for r in bridge_records)

    def test_population_stable_across_sweep(self, campaign):
        pop1 = campaign.population(DefectKind.BRIDGE)
        assert campaign.population(DefectKind.BRIDGE) is pop1
        assert not any(array.flags.writeable for array in (
            pop1.codes, pop1.strengths, pop1.resistances, pop1.cells,
            pop1.polarities))

    def test_coverage_record_math(self):
        rec = CoverageRecord("bridge", 1e3, "VLV", 1.0, 1e-7, 95, 100)
        assert rec.coverage == pytest.approx(0.95)
        assert rec.percent == pytest.approx(95.0)

    def test_open_campaign_runs(self, campaign, table_conditions):
        recs = campaign.run([1e5, 1e7], table_conditions[:1],
                            DefectKind.OPEN)
        assert len(recs) == 2
        assert all(r.kind == "open" for r in recs)

    def test_invalid_n_sites(self):
        with pytest.raises(ValueError):
            IfaCampaign(MemoryGeometry(4, 2, 2), CMOS018, n_sites=0)

    def test_coverage_record_errors_default(self):
        rec = CoverageRecord("bridge", 1e3, "VLV", 1.0, 1e-7, 95, 100)
        assert rec.errors == 0


class TestSweepValidation:
    """Empty sweeps used to return an empty record list that only broke
    the estimator much later; now they fail at the source."""

    @pytest.fixture()
    def small_campaign(self):
        return IfaCampaign(MemoryGeometry(8, 2, 2), CMOS018, n_sites=20)

    def test_empty_resistances_raises(self, small_campaign,
                                      table_conditions):
        with pytest.raises(ValueError, match="no resistances"):
            small_campaign.run([], table_conditions)

    def test_empty_conditions_raises(self, small_campaign):
        with pytest.raises(ValueError, match="no stress conditions"):
            small_campaign.run([1e3], [])

    def test_empty_conditions_iterator_raises(self, small_campaign):
        with pytest.raises(ValueError, match="no stress conditions"):
            small_campaign.run([1e3], iter([]))

    def test_non_positive_resistance_raises(self, small_campaign,
                                            table_conditions):
        with pytest.raises(ValueError, match="positive"):
            small_campaign.run([1e3, -5.0], table_conditions)

    def test_with_resistance_rejects_non_positive(self):
        from repro.defects.models import BridgeSite, bridge

        defect = bridge(BridgeSite.CELL_NODE_RAIL, 1e3)
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="positive"):
                defect.with_resistance(bad)

    def test_checkpointed_run_resumes(self, small_campaign,
                                      table_conditions, tmp_path):
        """IfaCampaign.run(checkpoint_path=...) wires the runner in."""
        ck = tmp_path / "ck.json"
        first = small_campaign.run([1e3], table_conditions[:1],
                                   checkpoint_path=ck)
        assert ck.exists()
        again = small_campaign.run([1e3], table_conditions[:1],
                                   checkpoint_path=ck)
        assert again == first


class TestTable1Regression:
    """The paper's Table 1 must be reproduced within sampling noise +
    calibration tolerance (< 4 percentage points per cell)."""

    @pytest.mark.parametrize("key", sorted(PAPER_TABLE1_FC, key=str))
    def test_cell_within_tolerance(self, bridge_records, key):
        resistance, condition = key
        rec = next(r for r in bridge_records
                   if r.resistance == resistance and r.condition == condition)
        assert rec.percent == pytest.approx(PAPER_TABLE1_FC[key], abs=4.0)

    def test_vlv_best_at_every_resistance(self, bridge_records):
        for r in TABLE1_RESISTANCES:
            by_cond = {rec.condition: rec.percent for rec in bridge_records
                       if rec.resistance == r}
            assert by_cond["VLV"] == max(by_cond.values())

    def test_vmax_collapse_at_high_r(self, bridge_records):
        vmax_90k = next(r for r in bridge_records
                        if r.resistance == 90e3 and r.condition == "Vmax")
        assert vmax_90k.percent < 5.0

    def test_coverage_decreases_with_resistance_per_condition(
            self, bridge_records):
        for cond in ("VLV", "Vmin", "Vnom", "Vmax"):
            percents = [r.percent for r in sorted(
                (rec for rec in bridge_records if rec.condition == cond),
                key=lambda rec: rec.resistance)]
            assert all(a >= b - 1.0 for a, b in zip(percents, percents[1:]))


class TestOpenCampaignShape:
    def test_vmax_beats_vnom_on_opens(self, campaign):
        """Section 4.2: high-voltage testing is the open-defect
        condition."""
        conds = production_conditions(CMOS018)
        import numpy as np
        rs = np.logspace(5, 7, 6)
        recs = campaign.run(rs, [conds["Vnom"], conds["Vmax"]],
                            DefectKind.OPEN)
        vnom = sum(r.detected for r in recs if r.condition == "Vnom")
        vmax = sum(r.detected for r in recs if r.condition == "Vmax")
        assert vmax > vnom
