"""Tests for the command-line interface."""

import json
import os
import signal
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_estimate_defaults(self):
        args = build_parser().parse_args(["estimate"])
        assert args.rows == 512 and args.bits == 32

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestCommands:
    def test_estimate_runs(self, capsys):
        rc = main(["estimate", "--rows", "32", "--columns", "4",
                   "--bits", "8", "--sites", "400"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "VLV" in out and "DPM" in out

    def test_estimate_saves_database(self, capsys, tmp_path):
        db_path = tmp_path / "cov.json"
        rc = main(["estimate", "--rows", "32", "--columns", "4",
                   "--bits", "8", "--sites", "300",
                   "--save-db", str(db_path)])
        assert rc == 0
        from repro.core.database import CoverageDatabase

        loaded = CoverageDatabase.load(db_path)
        assert len(loaded) > 0

    def test_shmoo_fault_free(self, capsys):
        rc = main(["shmoo"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "+" in out and "V |" in out

    def test_shmoo_with_preset(self, capsys):
        rc = main(["shmoo", "--defect", "rail-bridge",
                   "--resistance", "240e3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "rail-bridge" in out

    def test_shmoo_rejects_unknown_preset(self):
        with pytest.raises(SystemExit):
            main(["shmoo", "--defect", "gamma-ray"])

    def test_venn_small_lot(self, capsys):
        rc = main(["venn", "--devices", "800", "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "VLV only" in out

    def test_plan(self, capsys):
        rc = main(["plan", "--samples", "500", "--target-dpm", "100"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Pareto front" in out
        assert "cheapest plan" in out


class TestLintCommand:
    """Regression tests for the stable 0/1/2 lint exit-code contract."""

    def test_clean_target_exits_zero(self, capsys):
        assert main(["lint", "march:March C-"]) == 0
        assert "0 error(s), 0 warning(s)" in capsys.readouterr().out

    def test_warning_target_exits_zero_without_strict(self, capsys):
        assert main(["lint", "march:MATS"]) == 0

    def test_warning_target_exits_one_with_strict(self, capsys):
        assert main(["lint", "march:MATS", "--strict"]) == 1

    def test_broken_netlist_exits_two(self, capsys):
        assert main(["lint", "netlist:demo-broken"]) == 2
        out = capsys.readouterr().out
        assert "NET001" in out and "NET003" in out

    def test_broken_netlist_json(self, capsys):
        import json

        assert main(["lint", "netlist:demo-broken", "--format",
                     "json"]) == 2
        doc = json.loads(capsys.readouterr().out)
        rules = {i["rule"] for i in doc["issues"]}
        assert {"NET001", "NET003"} <= rules
        assert doc["summary"]["exit_code"] == 2

    def test_default_targets_are_error_free(self, capsys):
        assert main(["lint"]) == 0

    def test_suppression_flag(self, capsys):
        rc = main(["lint", "march:MATS", "--strict",
                   "--disable", "MARCH008,MARCH009"])
        assert rc == 0

    def test_unknown_suppression_exits_two(self, capsys):
        assert main(["lint", "netlist:cell", "--disable", "NET999"]) == 2
        assert "unknown rule 'NET999'" in capsys.readouterr().err

    def test_strict_errors_still_exit_two(self, capsys):
        assert main(["lint", "netlist:demo-broken", "--strict"]) == 2

    def test_unknown_target_exits_two(self, capsys):
        assert main(["lint", "netlist:frobnicate"]) == 2
        assert "unknown netlist target" in capsys.readouterr().err

    def test_unknown_march_test_exits_two(self, capsys):
        assert main(["lint", "march:no-such-test"]) == 2
        assert capsys.readouterr().err.startswith(
            "repro lint: unknown march test 'no-such-test'; available:")

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rid in ("NET001", "MARCH001", "PLAN001"):
            assert rid in out

    def test_plan_target_with_dpm_gate(self, capsys):
        rc = main(["lint", "plan:production", "--target-dpm", "1000",
                   "--samples", "200"])
        assert rc == 0

    def test_plan_target_unreachable_dpm(self, capsys):
        rc = main(["lint", "plan:standard", "--target-dpm", "1e-6",
                   "--samples", "200"])
        assert rc == 2
        assert "PLAN003" in capsys.readouterr().out


class TestCampaign:
    """The resilient-runner front door: run / resume / status."""

    ARGS = ["--rows", "16", "--columns", "2", "--bits", "4",
            "--sites", "40", "--seed", "7"]

    def test_run_without_checkpoint(self, capsys):
        rc = main(["campaign", "run", *self.ARGS])
        assert rc == 0
        out = capsys.readouterr().out
        assert "campaign complete" in out
        assert "quarantined sites: 0" in out
        assert "batch:" in out and "model invocations" in out

    def test_run_status_resume_cycle(self, capsys, tmp_path):
        ck = str(tmp_path / "ck.json")
        assert main(["campaign", "run", *self.ARGS,
                     "--checkpoint", ck]) == 0
        capsys.readouterr()

        assert main(["campaign", "status", ck]) == 0
        out = capsys.readouterr().out
        assert "units complete (0 remaining)" in out
        assert "16x2x4x1" in out

        db = str(tmp_path / "db.json")
        assert main(["campaign", "resume", ck, "--save-db", db]) == 0
        out = capsys.readouterr().out
        assert "resumed from checkpoint" in out

        from repro.core.database import CoverageDatabase

        assert len(CoverageDatabase.load(db)) > 0

    def test_run_under_chaos_survives(self, capsys):
        rc = main(["campaign", "run", *self.ARGS,
                   "--chaos-rate", "0.01", "--chaos-seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "chaos:" in out and "faults injected" in out

    def test_workers_flag_is_rejected(self, capsys):
        """Campaigns are serial: --workers is an argparse error."""
        with pytest.raises(SystemExit) as exc:
            main(["campaign", "run", *self.ARGS, "--workers", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --workers" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("command", [
        ["run", *ARGS], ["resume", "ck.json"], ["status", "ck.json"]],
        ids=["run", "resume", "status"])
    def test_cache_flag_is_rejected(self, capsys, command):
        """Campaigns have no evaluation cache: --cache is an argparse
        error on every campaign subcommand."""
        with pytest.raises(SystemExit) as exc:
            main(["campaign", *command, "--cache", "cache.json"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --cache" in (
            capsys.readouterr().err)

    @staticmethod
    def _assert_missing_checkpoint_error(tmp_path, capsys, command):
        """A missing checkpoint is a one-line error (exit 2), not a
        traceback."""
        absent = str(tmp_path / "absent.json")
        assert main(["campaign", command, absent]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("repro campaign: ")
        assert "absent.json" in lines[0]

    def test_status_missing_checkpoint(self, tmp_path, capsys):
        self._assert_missing_checkpoint_error(tmp_path, capsys, "status")

    def test_resume_missing_checkpoint(self, tmp_path, capsys):
        self._assert_missing_checkpoint_error(tmp_path, capsys, "resume")

    @pytest.mark.parametrize("command", ["status", "resume"])
    def test_corrupt_checkpoint(self, tmp_path, capsys, command):
        ck = tmp_path / "ck.json"
        ck.write_text("not json")
        assert main(["campaign", command, str(ck)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro campaign: ") and err.count("\n") == 1

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign"])

    def test_rejects_unknown_strategy(self):
        """A campaign has one evaluator, so there is nothing to choose."""
        for strategy in ("exact", "batch"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["campaign", "run",
                                           "--strategy", strategy])


class TestShmoo:
    @pytest.mark.parametrize("argv", [
        [], ["--defect", "rail-bridge", "--resistance", "240e3"]],
        ids=["fault-free", "rail-bridge"])
    def test_prints_trace_stats(self, capsys, argv):
        assert main(["shmoo", *argv]) == 0
        out = capsys.readouterr().out
        assert "boundary trace:" in out and "tester invocations" in out
        assert "refill" not in out

    @pytest.mark.parametrize("strategy", ["exact", "boundary"])
    def test_rejects_strategy(self, capsys, strategy):
        """Every shmoo traces its boundary, so there is nothing to
        choose."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["shmoo", "--strategy", strategy])
        assert exc.value.code == 2
        assert "unrecognized arguments: --strategy" in (
            capsys.readouterr().err)


class TestJournalCli:
    """The observability front door: --journal and `repro report`."""

    ARGS = ["--rows", "16", "--columns", "2", "--bits", "4",
            "--sites", "40", "--seed", "7"]

    def test_campaign_journal_then_report(self, capsys, tmp_path):
        journal = str(tmp_path / "run.jsonl")
        assert main(["campaign", "run", *self.ARGS,
                     "--journal", journal]) == 0
        out = capsys.readouterr().out
        assert "run journal:" in out

        assert main(["report", journal]) == 0
        out = capsys.readouterr().out
        assert "Run report" in out
        assert "Quarantines:" in out
        assert "Batch demotions:" in out

    def test_report_json_format(self, capsys, tmp_path):
        journal = str(tmp_path / "run.jsonl")
        assert main(["campaign", "run", *self.ARGS,
                     "--journal", journal]) == 0
        capsys.readouterr()
        assert main(["report", journal, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.run-report"
        assert doc["totals"]["executed_units"] == 80

    def test_report_missing_journal_exits_two(self, capsys, tmp_path):
        rc = main(["report", str(tmp_path / "absent.jsonl")])
        assert rc == 2
        assert "no run journal" in capsys.readouterr().err

    def test_report_corrupt_journal_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not a journal\n")
        rc = main(["report", str(bad)])
        assert rc == 2
        assert "line 1" in capsys.readouterr().err

    def test_report_without_journal_is_legacy_report(self, capsys):
        rc = main(["report", "--sites", "200", "--devices", "500"])
        assert rc == 0

    def test_shmoo_journal(self, capsys, tmp_path):
        journal = str(tmp_path / "shmoo.jsonl")
        assert main(["shmoo", "--journal", journal]) == 0
        assert "run journal:" in capsys.readouterr().out
        assert main(["report", journal]) == 0
        assert "Shmoo: grid=15x24 rows=15 fallbacks=0" in (
            capsys.readouterr().out)


class TestExperimentCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["experiment", "run"])
        assert args.devices == 1_000_000
        assert args.workers == 1

    @pytest.mark.parametrize("option", [
        ["--scheme", "legacy"], ["--scheme", "spawn"],
        ["--block-devices", "4096"], ["--chaos-seed", "5"]],
        ids=lambda o: " ".join(o))
    def test_rejects_removed_options(self, capsys, option):
        """The materialised lot is `repro venn`, the RNG block size is
        fixed, and worker faults draw from no seed: none of these is an
        `experiment run` option."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["experiment", "run", *option])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option[0]}" in (
            capsys.readouterr().err)

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment"])

    def test_run_small_experiment(self, capsys, tmp_path):
        journal = tmp_path / "exp.jsonl"
        rc = main(["experiment", "run", "--devices", "8192",
                   "--shard-devices", "4096",
                   "--journal", str(journal)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "experiment complete" in out
        assert "2 shard(s)" in out
        assert "escape DPM (VLV)" in out
        lines = [json.loads(line)
                 for line in journal.read_text().splitlines()]
        assert sum(e.get("event") == "experiment.shard"
                   for e in lines) == 2

    def test_resume_from_checkpoint(self, capsys, tmp_path):
        ckpt = tmp_path / "exp.ckpt.json"
        journal = tmp_path / "exp.jsonl"
        base = ["experiment", "run", "--devices", "8192",
                "--shard-devices", "4096", "--checkpoint", str(ckpt)]
        assert main([*base, "--journal", str(journal)]) == 0
        first = capsys.readouterr().out
        assert main(base) == 0
        second = capsys.readouterr().out
        assert "2 resumed from checkpoint" in second
        assert first.splitlines()[1:-1] == second.splitlines()[1:]
        saves = [e["data"]["completed_units"]
                 for e in map(json.loads, journal.read_text().splitlines())
                 if e.get("event") == "checkpoint.save"]
        assert saves == [1, 2]

    def test_checkpoint_every_flag_is_rejected(self, capsys):
        """Lots checkpoint after every shard: --checkpoint-every is an
        argparse error."""
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "run", "--devices", "8192",
                  "--checkpoint-every", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --checkpoint-every" in (
            capsys.readouterr().err)

    def test_chaos_worker_exit_heals(self, capsys):
        rc = main(["experiment", "run", "--devices", "8192",
                   "--shard-devices", "4096", "--workers", "2",
                   "--chaos-worker-exit", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "worker losses 1" in out


class TestBadPaths:
    """A corrupt checkpoint, another run's checkpoint or a directory
    where a file belongs ends in one ``repro <cmd>: ...`` line on
    stderr and exit 2, before any evaluation -- not a traceback."""

    CAMPAIGN = ["campaign", "run", "--rows", "8", "--columns", "2",
                "--bits", "4", "--sites", "20"]
    LOT = ["experiment", "run", "--devices", "8192",
           "--shard-devices", "4096"]

    @staticmethod
    def assert_usage_error(capsys, argv, prefix):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(prefix)
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("base, prefix", [
        (CAMPAIGN, "repro campaign: "), (LOT, "repro experiment run: ")],
        ids=["campaign", "experiment"])
    def test_corrupt_checkpoint(self, capsys, tmp_path, base, prefix):
        ck = tmp_path / "ck.json"
        ck.write_text("not json")
        self.assert_usage_error(capsys, [*base, "--checkpoint", str(ck)],
                                prefix)

    @pytest.mark.parametrize("base, prefix", [
        (CAMPAIGN, "repro campaign: "), (LOT, "repro experiment run: ")],
        ids=["campaign", "experiment"])
    def test_checkpoint_of_another_run(self, capsys, tmp_path, base,
                                       prefix):
        ck = str(tmp_path / "ck.json")
        assert main([*base, "--seed", "1", "--checkpoint", ck]) == 0
        capsys.readouterr()
        self.assert_usage_error(
            capsys, [*base, "--seed", "2", "--checkpoint", ck], prefix)

    @pytest.mark.parametrize("base, prefix", [
        (CAMPAIGN, "repro campaign: "), (LOT, "repro experiment run: ")],
        ids=["campaign", "experiment"])
    def test_checkpoint_is_a_directory(self, capsys, tmp_path, base,
                                       prefix):
        self.assert_usage_error(
            capsys, [*base, "--checkpoint", str(tmp_path)], prefix)

    @pytest.mark.parametrize("command, prefix", [
        (["report"], "repro report: "),
        (["campaign", "status"], "repro campaign: "),
        (["campaign", "resume"], "repro campaign: "),
        (["serve", "--db"], "repro serve: ")],
        ids=["report", "status", "resume", "serve"])
    def test_directory_instead_of_file(self, capsys, tmp_path, command,
                                       prefix):
        self.assert_usage_error(capsys, [*command, str(tmp_path)], prefix)

    OUTPUT_FLAGS = pytest.mark.parametrize("command, flag", [
        (["estimate", "--rows", "8", "--columns", "2", "--bits", "4",
          "--sites", "20"], "--save-db"),
        ([*CAMPAIGN, "--checkpoint", "CK"], "--save-db"),
        ([*CAMPAIGN, "--checkpoint", "CK"], "--journal"),
        (["campaign", "resume", "CK"], "--save-db"),
        (["campaign", "resume", "CK"], "--journal"),
        ([*LOT, "--checkpoint", "CK"], "--journal"),
        (["shmoo", "--defect", "rail-bridge"], "--journal"),
        (["serve", "--port", "0"], "--journal")],
        ids=["estimate-save-db", "run-save-db", "run-journal",
             "resume-save-db", "resume-journal", "experiment-journal",
             "shmoo-journal", "serve-journal"])

    @OUTPUT_FLAGS
    def test_output_directory_refused_before_any_run(self, capsys, tmp_path,
                                                    command, flag):
        """A directory given as an output file is a usage error at
        parse time: nothing is evaluated, checkpointed or left as a
        ``.tmp``."""
        out = tmp_path / "out"
        out.mkdir()
        ck = str(tmp_path / "ck.json")
        argv = [ck if arg == "CK" else arg for arg in command]
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, str(out)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{flag}: is a directory, not a file: {out}" in captured.err
        assert "Traceback" not in captured.err
        assert [p.name for p in tmp_path.iterdir()] == ["out"]
        assert list(out.iterdir()) == []

    @OUTPUT_FLAGS
    def test_missing_parent_directory_refused_before_any_run(
            self, capsys, tmp_path, monkeypatch, command, flag):
        """An output file in a directory that does not exist is a usage
        error at parse time, not a ``FileNotFoundError`` after the
        run."""
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([*command, flag, "nodir/out"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            f"{flag}: parent directory does not exist: nodir\n")
        assert "Traceback" not in captured.err
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["experiment", "run", "--unit-deadline", "0"],
     "--unit-deadline: must be positive"),
    (["experiment", "run", "--devices", "0"],
     "--devices: must be positive"),
    (["experiment", "run", "--workers", "0"],
     "--workers: must be positive"),
    (["experiment", "run", "--shard-devices", "1000"],
     "--shard-devices: must be a positive multiple of the 4096-device "
     "RNG block, got 1000"),
    (["experiment", "run", "--shard-devices", "0"],
     "--shard-devices: must be a positive multiple"),
    (["experiment", "run", "--seed", "-1"], "--seed: must be non-negative"),
    (["venn", "--seed", "-1"], "--seed: must be non-negative"),
    (["campaign", "run", "--seed", "-1"], "--seed: must be non-negative"),
    (["plan", "--target-dpm", "-5"], "--target-dpm: must be non-negative"),
    (["lint", "plan:production", "--target-dpm", "-5"],
     "--target-dpm: must be non-negative"),
    (["campaign", "run", "--sites", "0"], "--sites: must be positive"),
    (["campaign", "run", "--rows", "0"], "--rows: must be positive"),
    (["campaign", "run", "--columns", "0"], "--columns: must be positive"),
    (["campaign", "run", "--bits", "-4"], "--bits: must be positive"),
    (["estimate", "--rows", "0"], "--rows: must be positive"),
    (["estimate", "--columns", "0"], "--columns: must be positive"),
    (["estimate", "--bits", "0"], "--bits: must be positive"),
    (["estimate", "--blocks", "0"], "--blocks: must be positive"),
    (["estimate", "--sites", "0"], "--sites: must be positive"),
    (["report", "--sites", "0"], "--sites: must be positive"),
    (["venn", "--devices", "0"], "--devices: must be positive"),
    (["report", "--devices", "0"], "--devices: must be positive"),
    (["campaign", "run", "--max-attempts", "0"],
     "--max-attempts: must be positive"),
    (["campaign", "resume", "ck.json", "--unit-deadline", "-1"],
     "--unit-deadline: must be positive"),
    (["plan", "--samples", "0"], "--samples: must be positive"),
    (["serve", "--cache-size", "-1"], "--cache-size: must be non-negative"),
    (["experiment", "run", "--devices", "many"],
     "--devices: invalid int value"),
    (["experiment", "run", "--d0", "-1"], "--d0: must be positive"),
    (["experiment", "run", "--bridge-fraction", "2"],
     "--bridge-fraction: must be in [0, 1]"),
    (["campaign", "run", "--chaos-rate", "3"],
     "--chaos-rate: must be in [0, 1]"),
    (["campaign", "run", "--chaos-rate", "0.1", "--chaos-seed", "-1"],
     "--chaos-seed: must be non-negative"),
    (["campaign", "resume", "ck.json", "--chaos-seed", "-1"],
     "--chaos-seed: must be non-negative"),
    (["experiment", "run", "--workers", "2", "--chaos-worker-exit", "x"],
     "--chaos-worker-exit: must be SHARD[:TIMES]"),
    (["experiment", "run", "--workers", "2", "--chaos-worker-exit", "1:y"],
     "--chaos-worker-exit: must be SHARD[:TIMES]"),
    (["experiment", "run", "--workers", "2", "--chaos-worker-exit", "0:-2"],
     "--chaos-worker-exit: must be SHARD[:TIMES]"),
    (["experiment", "run", "--workers", "2", "--unit-deadline", "5",
      "--chaos-worker-hang", "-1"],
     "--chaos-worker-hang: must be SHARD[:TIMES]"),
    (["experiment", "run", "--devices", "8192", "--shard-devices", "4096",
      "--workers", "2", "--chaos-worker-exit", "99"],
     "shard index 99 out of range (plan has 2 shards)"),
    (["experiment", "run", "--workers", "2", "--chaos-worker-hang", "1"],
     "a worker.hang fault needs unit_deadline"),
    (["experiment", "run", "--chaos-worker-exit", "1"],
     "--chaos-worker-* needs --workers 2 or more"),
    (["serve", "--port", "-1"], "--port: must be in 0-65535"),
    (["serve", "--port", "65536"], "--port: must be in 0-65535"),
    (["shmoo", "--defect", "rail-bridge", "--resistance", "-5"],
     "--resistance: must be positive"),
    (["shmoo", "--test", "bogus"], "--test: unknown march test 'bogus'"),
    (["plan", "--test", "bogus", "--samples", "50"],
     "--test: unknown march test 'bogus'"),
    (["lint", "--test", "bogus"], "--test: unknown march test 'bogus'"),
], ids=lambda value: " ".join(value) if isinstance(value, list) else "")
def test_out_of_range_values_are_usage_errors(capsys, argv, message):
    """Bad option values end in a one-line argparse error (exit 2), not
    in a traceback from the library's own checks."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM],
                         ids=["SIGINT", "SIGTERM"])
def test_serve_stops_cleanly_on_signal(tmp_path, signum):
    """``repro serve`` exits 0 and flushes its journal on SIGINT or
    SIGTERM, also when it inherited SIGINT as ignored (``cmd &`` in a
    non-interactive shell, ``nohup``)."""
    journal = tmp_path / "serve.jsonl"
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--journal", str(journal)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN))
    try:
        for line in proc.stdout:
            if line.startswith("serving on"):
                break
        proc.send_signal(signum)
        out, err = proc.communicate(timeout=10)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 0, err
    assert f"run journal: {journal}" in out
    assert journal.exists()


def test_serve_bind_error_is_one_line(tmp_path):
    """An address ``repro serve`` cannot listen on is one line on
    stderr and exit 2, not a traceback."""
    src = Path(__file__).resolve().parents[1] / "src"
    with socket.socket() as held:
        held.bind(("127.0.0.1", 0))
        held.listen()
        port = held.getsockname()[1]
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--host",
             "127.0.0.1", "--port", str(port)],
            capture_output=True, text=True, timeout=30,
            env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(
        f"repro serve: cannot listen on 127.0.0.1:{port}: ")
    assert proc.stderr.count("\n") == 1
    assert "serving on" not in proc.stdout
