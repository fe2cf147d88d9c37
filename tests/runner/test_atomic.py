"""Tests for repro.runner.atomic: crash-safe writes and envelopes."""

import json

import pytest

from repro.runner.atomic import (
    EnvelopeError,
    atomic_write_text,
    body_checksum,
    temp_path_for,
    unwrap_envelope,
    wrap_envelope,
)
from repro.runner.chaos import FaultInjector, InjectedFault


class TestAtomicWrite:
    def test_creates_file(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_text(path, "hello")
        assert path.read_text() == "hello"

    def test_replaces_existing(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_text("old")
        atomic_write_text(path, "new")
        assert path.read_text() == "new"

    def test_no_temp_left_behind(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_text(path, "x")
        assert not temp_path_for(path).exists()

    @pytest.mark.parametrize("crash_site", ["io.write", "io.fsync"])
    def test_crash_before_rename_preserves_old(self, tmp_path, crash_site):
        """A crash at any point before the rename leaves the previous
        file byte-identical."""
        path = tmp_path / "out.json"
        path.write_text("precious")
        inj = FaultInjector(positions={crash_site: {0}})
        with pytest.raises(InjectedFault):
            atomic_write_text(path, "torn", fault_hook=inj.check)
        assert path.read_text() == "precious"

    def test_crash_at_replace_leaves_valid_temp(self, tmp_path):
        """Crash between fsync and rename: destination stale, temp
        complete -- the recovery source for checkpoint/database load."""
        path = tmp_path / "out.json"
        path.write_text("stale")
        inj = FaultInjector(positions={"io.replace": {0}})
        with pytest.raises(InjectedFault):
            atomic_write_text(path, "fresh", fault_hook=inj.check)
        assert path.read_text() == "stale"
        assert temp_path_for(path).read_text() == "fresh"

    def test_real_replace_failure_removes_temp(self, tmp_path):
        """A real OSError (here: the destination is a directory) is not
        a crash: the error propagates and no temp file is left."""
        path = tmp_path / "out"
        path.mkdir()
        with pytest.raises(IsADirectoryError):
            atomic_write_text(path, "fresh")
        assert not temp_path_for(path).exists()
        assert path.is_dir()


class TestEnvelope:
    def test_roundtrip(self):
        body = {"a": [1, 2.5], "b": "x"}
        env = wrap_envelope("s", 1, body)
        version, out = unwrap_envelope(env, "s", 1)
        assert version == 1 and out == body

    def test_checksum_is_canonical(self):
        assert body_checksum({"a": 1, "b": 2}) == body_checksum(
            {"b": 2, "a": 1})

    def test_wrong_schema(self):
        env = wrap_envelope("s", 1, {})
        with pytest.raises(EnvelopeError, match="schema mismatch"):
            unwrap_envelope(env, "other", 1)

    def test_unsupported_version(self):
        env = wrap_envelope("s", 5, {})
        with pytest.raises(EnvelopeError, match="unsupported schema"):
            unwrap_envelope(env, "s", 1)

    def test_missing_key(self):
        env = wrap_envelope("s", 1, {})
        del env["checksum"]
        with pytest.raises(EnvelopeError, match="missing the 'checksum'"):
            unwrap_envelope(env, "s", 1)

    def test_tampered_body_fails_checksum(self):
        env = wrap_envelope("s", 1, {"n": 1})
        env["body"]["n"] = 2
        with pytest.raises(EnvelopeError, match="checksum mismatch"):
            unwrap_envelope(env, "s", 1)

    def test_not_a_dict(self):
        with pytest.raises(EnvelopeError, match="expected an envelope"):
            unwrap_envelope([1, 2], "s", 1)
