"""Tests for repro.core.database."""

import json

import pytest

from repro.core.database import CoverageDatabase, DatabaseCorruptError
from repro.defects.distribution import default_bridge_distribution
from repro.ifa.flow import CoverageRecord
from repro.runner.atomic import temp_path_for


def rec(kind, r, cond, detected, total=100):
    return CoverageRecord(kind, r, cond, 1.8, 1e-7, detected, total)


@pytest.fixture
def db():
    return CoverageDatabase([
        rec("bridge", 1e2, "VLV", 100),
        rec("bridge", 1e4, "VLV", 90),
        rec("bridge", 1e6, "VLV", 50),
        rec("bridge", 1e2, "Vmax", 95),
        rec("bridge", 1e4, "Vmax", 40),
        rec("bridge", 1e6, "Vmax", 1),
    ])


class TestQueries:
    def test_exact_points(self, db):
        assert db.coverage("bridge", "VLV", 1e4) == pytest.approx(0.90)

    def test_log_interpolation_midpoint(self, db):
        # Geometric mean of 1e2 and 1e4 -> arithmetic mean of coverages.
        assert db.coverage("bridge", "VLV", 1e3) == pytest.approx(0.95)

    def test_clamped_below_and_above(self, db):
        assert db.coverage("bridge", "VLV", 1.0) == pytest.approx(1.00)
        assert db.coverage("bridge", "VLV", 1e9) == pytest.approx(0.50)

    def test_unknown_key(self, db):
        with pytest.raises(KeyError, match="available"):
            db.coverage("open", "VLV", 1e3)
        with pytest.raises(KeyError):
            db.coverage("bridge", "Vmin", 1e3)

    def test_conditions_and_resistances(self, db):
        assert db.conditions("bridge") == ["VLV", "Vmax"]
        assert db.resistances("bridge") == [1e2, 1e4, 1e6]

    def test_len(self, db):
        assert len(db) == 6


class TestWeightedCoverage:
    def test_bounds(self, db):
        dist = default_bridge_distribution()
        dc = db.weighted_coverage("bridge", "VLV", dist)
        assert 0.0 <= dc <= 1.0

    def test_ordering_follows_per_r_ordering(self, db):
        """VLV dominates Vmax at every R, so weighted coverage too."""
        dist = default_bridge_distribution()
        assert (db.weighted_coverage("bridge", "VLV", dist)
                > db.weighted_coverage("bridge", "Vmax", dist))

    def test_constant_coverage_is_identity(self):
        db = CoverageDatabase([
            rec("bridge", 1e2, "X", 80),
            rec("bridge", 1e6, "X", 80),
        ])
        dist = default_bridge_distribution()
        assert db.weighted_coverage("bridge", "X", dist) == pytest.approx(
            0.80, abs=1e-6)


class TestPersistence:
    def test_save_load_roundtrip(self, db, tmp_path):
        path = tmp_path / "coverage.json"
        db.save(path)
        loaded = CoverageDatabase.load(path)
        assert len(loaded) == len(db)
        assert loaded.coverage("bridge", "VLV", 1e4) == pytest.approx(
            db.coverage("bridge", "VLV", 1e4))

    def test_loaded_records_equal(self, db, tmp_path):
        path = tmp_path / "coverage.json"
        db.save(path)
        loaded = CoverageDatabase.load(path)
        assert loaded.records == db.records

    def test_save_is_atomic_replace(self, db, tmp_path):
        path = tmp_path / "coverage.json"
        path.write_text("old content")
        db.save(path)
        assert not temp_path_for(path).exists()
        assert len(CoverageDatabase.load(path)) == len(db)

    def test_errors_field_roundtrips(self, tmp_path):
        db = CoverageDatabase([CoverageRecord(
            "bridge", 1e3, "VLV", 1.0, 1e-7, 90, 100, errors=4)])
        path = tmp_path / "coverage.json"
        db.save(path)
        assert CoverageDatabase.load(path).records[0].errors == 4

    def test_legacy_bare_list_still_loads(self, tmp_path):
        """Databases written before the envelope format (e.g. the
        shipped cmos018 file) keep loading; errors defaults to 0."""
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps([{
            "kind": "bridge", "resistance": 1e3, "condition": "VLV",
            "vdd": 1.8, "period": 1e-7, "detected": 5, "total": 10,
        }]))
        loaded = CoverageDatabase.load(path)
        assert loaded.records[0].detected == 5
        assert loaded.records[0].errors == 0


class TestCorruption:
    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no coverage"):
            CoverageDatabase.load(tmp_path / "absent.json")

    def test_truncated_json_names_path_and_defect(self, db, tmp_path):
        path = tmp_path / "coverage.json"
        db.save(path)
        path.write_text(path.read_text()[:25])
        with pytest.raises(DatabaseCorruptError,
                           match="invalid/truncated JSON") as info:
            CoverageDatabase.load(path)
        assert str(path) in str(info.value)

    def test_missing_key_is_corruption_not_keyerror(self, tmp_path):
        path = tmp_path / "coverage.json"
        path.write_text(json.dumps([{"kind": "bridge",
                                     "resistance": 1e3}]))
        with pytest.raises(DatabaseCorruptError,
                           match=r"row 0 is missing key"):
            CoverageDatabase.load(path)

    def test_wrong_row_type(self, tmp_path):
        path = tmp_path / "coverage.json"
        path.write_text(json.dumps(["not-a-row"]))
        with pytest.raises(DatabaseCorruptError, match="row 0"):
            CoverageDatabase.load(path)

    def test_tampered_envelope_fails_checksum(self, db, tmp_path):
        path = tmp_path / "coverage.json"
        db.save(path)
        payload = json.loads(path.read_text())
        payload["body"]["records"][0]["detected"] = 12345
        path.write_text(json.dumps(payload))
        with pytest.raises(DatabaseCorruptError,
                           match="checksum mismatch"):
            CoverageDatabase.load(path)

    def test_unexpected_extra_key_is_malformed(self, tmp_path):
        path = tmp_path / "coverage.json"
        path.write_text(json.dumps([{
            "kind": "bridge", "resistance": 1e3, "condition": "VLV",
            "vdd": 1.8, "period": 1e-7, "detected": 5, "total": 10,
            "mystery": 1,
        }]))
        with pytest.raises(DatabaseCorruptError, match="malformed"):
            CoverageDatabase.load(path)

    def test_recovery_from_temp_sibling(self, db, tmp_path):
        """Crash between write and rename: the intact temp rescues."""
        path = tmp_path / "coverage.json"
        db.save(path)
        temp_path_for(path).write_text(path.read_text())
        path.write_text("{torn")
        loaded = CoverageDatabase.load(path)
        assert len(loaded) == len(db)

    def test_corrupt_temp_does_not_mask_error(self, db, tmp_path):
        path = tmp_path / "coverage.json"
        db.save(path)
        path.write_text("{torn")
        temp_path_for(path).write_text("also torn")
        with pytest.raises(DatabaseCorruptError):
            CoverageDatabase.load(path)

    def test_corrupt_temp_discard_is_journalled(self, db, tmp_path):
        """The passed-over corrupt .tmp used to vanish without a trace;
        with a bus it becomes a database.discard_corrupt_tmp event."""
        from repro.obs.bus import EventBus

        path = tmp_path / "coverage.json"
        db.save(path)
        path.write_text("{torn")
        tmp = temp_path_for(path)
        tmp.write_text("also torn")
        bus = EventBus()
        with pytest.raises(DatabaseCorruptError, match=str(path)):
            CoverageDatabase.load(path, bus=bus)
        (event,) = bus.events
        assert event.name == "database.discard_corrupt_tmp"
        assert event.data["path"] == str(tmp)
        assert "JSON" in event.data["error"]

    def test_corrupt_temp_with_missing_main_raises_corruption(
            self, db, tmp_path):
        """A lone corrupt .tmp is a corruption story, not file-not-found
        (the old code raised a misleading FileNotFoundError here)."""
        path = tmp_path / "coverage.json"
        temp_path_for(path).write_text("{torn")
        with pytest.raises(DatabaseCorruptError):
            CoverageDatabase.load(path)


class TestResistanceValidation:
    """Non-positive/non-finite R would poison log-R interpolation with
    a bare ``math domain error``; both ingestion paths reject it by
    naming the offending record instead."""

    @pytest.mark.parametrize("bad_r", [0.0, -1e3, float("inf"),
                                       float("nan")])
    def test_add_records_rejects_bad_resistance(self, bad_r):
        with pytest.raises(ValueError,
                           match=r"record 1 \(kind='bridge', "
                                 r"condition='VLV'\)"):
            CoverageDatabase([rec("bridge", 1e3, "VLV", 90),
                              rec("bridge", bad_r, "VLV", 80)])

    def test_valid_resistances_still_interpolate(self):
        db = CoverageDatabase([rec("bridge", 1e2, "VLV", 100),
                               rec("bridge", 1e4, "VLV", 90)])
        assert db.coverage("bridge", "VLV", 1e3) == pytest.approx(0.95)

    @pytest.mark.parametrize("bad_r", [0.0, -5.0])
    def test_load_rejects_bad_resistance_naming_row(self, tmp_path,
                                                    bad_r):
        path = tmp_path / "coverage.json"
        path.write_text(json.dumps([
            {"kind": "bridge", "resistance": 1e3, "condition": "VLV",
             "vdd": 1.8, "period": 1e-7, "detected": 9, "total": 10},
            {"kind": "bridge", "resistance": bad_r, "condition": "VLV",
             "vdd": 1.8, "period": 1e-7, "detected": 9, "total": 10},
        ]))
        with pytest.raises(DatabaseCorruptError,
                           match="row 1 .*non-positive or non-finite"):
            CoverageDatabase.load(path)

    def test_load_rejects_non_numeric_resistance(self, tmp_path):
        path = tmp_path / "coverage.json"
        path.write_text(json.dumps([
            {"kind": "bridge", "resistance": "1e3", "condition": "VLV",
             "vdd": 1.8, "period": 1e-7, "detected": 9, "total": 10},
        ]))
        with pytest.raises(DatabaseCorruptError, match="row 0"):
            CoverageDatabase.load(path)

    def test_kinds_lists_stored_kinds(self, db):
        db.add_records([rec("open", 1e5, "Vmax", 60)])
        assert db.kinds() == ["bridge", "open"]


class TestIncrementalAdd:
    def test_add_rebuilds_index(self, db):
        db.add_records([rec("open", 1e5, "Vmax", 60)])
        assert db.coverage("open", "Vmax", 1e5) == pytest.approx(0.60)

    def test_duplicate_resistance_last_wins(self):
        db = CoverageDatabase([
            rec("bridge", 1e3, "X", 10),
            rec("bridge", 1e3, "X", 90),
        ])
        assert db.coverage("bridge", "X", 1e3) == pytest.approx(0.90)


class TestEnvelope:
    def test_envelope_dominates_every_condition(self, db):
        from repro.defects.distribution import default_bridge_distribution

        dist = default_bridge_distribution()
        env = db.envelope_coverage("bridge", dist)
        for cond in db.conditions("bridge"):
            assert env >= db.weighted_coverage("bridge", cond, dist) - 1e-9

    def test_envelope_unknown_kind(self, db):
        from repro.defects.distribution import default_bridge_distribution

        with pytest.raises(KeyError):
            db.envelope_coverage("open", default_bridge_distribution())
