"""Tests for the ``code`` pack: determinism & I/O-discipline analysis.

One fixture snippet per rule -- positive (fires), negative (stays
quiet) and suppression (``# repro: lint-disable=ID``) -- plus the
self-lint gate asserting the shipped tree is clean under its own
analyzer.
"""

import json

from repro.lint import EXIT_CLEAN, LintConfig, Severity, combined_exit_code
from repro.lint.code import lint_code_paths, lint_code_source
from repro.lint.code.context import CodeLintContext, parse_suppressions


def issues(source: str, path: str = "src/repro/pack/mod.py",
           config: LintConfig | None = None):
    """Lint a snippet; return its issues list."""
    return lint_code_source(source, path, config).issues


def rule_ids(source: str, path: str = "src/repro/pack/mod.py",
             config: LintConfig | None = None):
    """Lint a snippet; return the list of firing rule IDs."""
    return [i.rule_id for i in issues(source, path, config)]


class TestContext:
    def test_module_name_and_roles(self):
        ctx = CodeLintContext.from_source(
            "x = 1\n", "src/repro/runner/atomic.py")
        assert ctx.module == "repro.runner.atomic"
        assert ctx.is_atomic_module and not ctx.is_test

        ctx = CodeLintContext.from_source("x = 1\n", "tests/obs/test_x.py")
        assert ctx.module == "tests.obs.test_x"
        assert ctx.is_test

        ctx = CodeLintContext.from_source(
            "x = 1\n", "src/repro/perf/fastpath_bench.py")
        assert ctx.is_bench

        ctx = CodeLintContext.from_source(
            "x = 1\n", "src/repro/runner/evaluate.py")
        assert ctx.is_worker_module

    def test_import_resolution(self):
        import ast

        ctx = CodeLintContext.from_source(
            "import numpy as np\n"
            "from random import randint\n"
            "import os.path\n")
        call = ast.parse("np.random.rand()").body[0].value
        assert ctx.resolve(call.func) == "numpy.random.rand"
        assert ctx.from_imports["randint"] == "random.randint"
        assert ctx.module_aliases["os"] == "os"
        # a chain rooted in a local object is unresolvable
        method = ast.parse("self.rng.random()").body[0].value
        assert ctx.resolve(method.func) is None

    def test_suppressions_only_in_real_comments(self):
        table = parse_suppressions(
            '"""docstring saying # repro: lint-disable=DET001"""\n'
            "x = 1  # repro: lint-disable=DET001,IO002\n")
        assert table == {2: frozenset({"DET001", "IO002"})}

    def test_standalone_comment_binds_to_next_code_line(self):
        table = parse_suppressions(
            "# repro: lint-disable=OBS002 -- justification\n"
            "# (a second comment line keeps the binding)\n"
            "foo()\n")
        assert table == {3: frozenset({"OBS002"})}


class TestDeterminismRules:
    def test_det001_module_random_fires(self):
        assert "DET001" in rule_ids(
            "import random\nvalue = random.random()\n")

    def test_det001_unseeded_and_system_random_fire(self):
        assert "DET001" in rule_ids("import random\nr = random.Random()\n")
        assert "DET001" in rule_ids(
            "import random\nr = random.SystemRandom()\n")

    def test_det001_seeded_instance_clean(self):
        assert rule_ids("import random\nr = random.Random(1105)\n") == []

    def test_det001_from_import_fires(self):
        assert "DET001" in rule_ids(
            "from random import shuffle\nshuffle([1, 2])\n")

    def test_det002_numpy_global_fires_seeded_generator_clean(self):
        assert "DET002" in rule_ids(
            "import numpy as np\nx = np.random.rand(4)\n")
        assert "DET002" in rule_ids(
            "import numpy as np\nrng = np.random.default_rng()\n")
        assert rule_ids(
            "import numpy as np\nrng = np.random.default_rng(7)\n") == []
        assert rule_ids(
            "import numpy as np\n"
            "ss = np.random.SeedSequence(entropy=3)\n") == []

    def test_det003_wall_clock_fires(self):
        assert "DET003" in rule_ids("import time\nt = time.time()\n")
        assert "DET003" in rule_ids(
            "from datetime import datetime\nnow = datetime.now()\n")

    def test_det003_monotonic_only_in_bench_modules(self):
        src = "import time\nt = time.perf_counter()\n"
        assert "DET003" in rule_ids(src)
        assert rule_ids(src, "src/repro/perf/fastpath_bench.py") == []
        assert rule_ids(src, "benchmarks/perf/bench.py") == []

    def test_det003_skips_tests(self):
        assert rule_ids("import time\nt = time.time()\n",
                        "tests/perf/test_timing.py") == []

    def test_det004_set_iteration_fires(self):
        assert "DET004" in rule_ids("for x in set([3, 1]):\n    print(x)\n")
        assert "DET004" in rule_ids("out = [x for x in {1, 2}]\n")
        assert "DET004" in rule_ids(
            "import os\nfor k in os.environ:\n    print(k)\n")

    def test_det004_sorted_iteration_clean(self):
        assert rule_ids("for x in sorted(set([3, 1])):\n    print(x)\n") == []
        assert rule_ids(
            "out = sorted(x for x in {1, 2} | {3})\n") == []

    def test_det005_bare_dumps_to_sink_fires(self):
        assert "DET005" in rule_ids(
            "import json\nfrom pathlib import Path\n"
            "Path('x.json').write_text(json.dumps({'a': 1}))\n")
        assert "DET005" in rule_ids(
            "import json\nfrom repro.runner.atomic import atomic_write_text\n"
            "atomic_write_text('x.json', json.dumps({'a': 1}))\n")

    def test_det005_sorted_dumps_clean(self):
        assert "DET005" not in rule_ids(
            "import json\nfrom repro.runner.atomic import atomic_write_text\n"
            "atomic_write_text('x', json.dumps({'a': 1}, sort_keys=True))\n")

    def test_det005_unpersisted_dumps_clean(self):
        assert "DET005" not in rule_ids(
            "import json\ntext = json.dumps({'a': 1})\n")


class TestIoRules:
    def test_io001_write_mode_fires_read_mode_clean(self):
        assert "IO001" in rule_ids(
            "with open('out.json', 'w') as fh:\n    fh.write('x')\n")
        assert "IO001" in rule_ids("fh = open('out.bin', mode='wb')\n")
        assert "IO001" not in rule_ids(
            "with open('in.json') as fh:\n    fh.read()\n")
        assert "IO001" not in rule_ids(
            "with open('in.json', 'r') as fh:\n    fh.read()\n")

    def test_io001_exempt_in_atomic_module_and_tests(self):
        src = "fh = open('out', 'w')\n"
        assert rule_ids(src, "src/repro/runner/atomic.py") == []
        assert rule_ids(src, "tests/runner/test_atomic.py") == []

    def test_io002_path_write_fires(self):
        assert "IO002" in rule_ids(
            "from pathlib import Path\nPath('x').write_text('data')\n")
        assert "IO002" in rule_ids(
            "from pathlib import Path\nPath('x').write_bytes(b'data')\n")

    def test_io003_rename_fires_outside_atomic(self):
        assert "IO003" in rule_ids("import os\nos.replace('a', 'b')\n")
        assert "IO003" in rule_ids(
            "import shutil\nshutil.move('a', 'b')\n")
        assert rule_ids("import os\nos.replace('a', 'b')\n",
                        "src/repro/runner/atomic.py") == []

    def test_io004_write_rename_without_fsync_fires(self):
        src = (
            "import os\n"
            "def commit(path, text):\n"
            "    with open(path + '.tmp', 'w') as fh:\n"
            "        fh.write(text)\n"
            "    os.replace(path + '.tmp', path)\n")
        assert "IO004" in rule_ids(src, "src/repro/runner/atomic.py")

    def test_io004_fsync_in_scope_clean(self):
        src = (
            "import os\n"
            "def commit(path, text):\n"
            "    with open(path + '.tmp', 'w') as fh:\n"
            "        fh.write(text)\n"
            "        os.fsync(fh.fileno())\n"
            "    os.replace(path + '.tmp', path)\n")
        assert "IO004" not in rule_ids(src, "src/repro/runner/atomic.py")


class TestObsRules:
    def test_obs001_unknown_event_fires(self):
        assert "OBS001" in rule_ids("bus.emit('unit.finished', unit='u')\n")

    def test_obs001_catalogued_event_clean(self):
        assert rule_ids("bus.emit('unit.resumed', unit='u')\n") == []

    def test_obs001_non_literal_name_skipped(self):
        assert rule_ids("bus.emit(name, **data)\n") == []

    def test_obs002_missing_key_fires(self):
        out = issues("bus.emit('unit.retry', unit='u')\n")
        assert [i.rule_id for i in out] == ["OBS002"]
        assert "'error'" in out[0].message

    def test_obs002_splat_payload_skipped(self):
        assert rule_ids("bus.emit('unit.retry', **payload)\n") == []

    def test_obs002_extra_keys_allowed(self):
        assert rule_ids(
            "bus.emit('unit.resumed', unit='u', extra=1)\n") == []

    def test_obs002_checked_in_tests_too(self):
        assert rule_ids("bus.emit('run.start')\n",
                        "tests/obs/test_fixture.py") == ["OBS002"]

    def test_obs003_worker_module_emit_fires(self):
        src = "bus.emit('unit.resumed', unit='u')\n"
        assert "OBS003" in rule_ids(src, "src/repro/runner/evaluate.py")
        assert "OBS003" in rule_ids(src, "src/repro/perf/executor.py")
        assert "OBS003" not in rule_ids(src, "src/repro/runner/campaign.py")


class TestSuppressions:
    def test_same_line_suppression_drops_finding(self):
        assert rule_ids(
            "import random\n"
            "v = random.random()  "
            "# repro: lint-disable=DET001 -- fixture noise\n") == []

    def test_preceding_comment_suppression_drops_finding(self):
        assert rule_ids(
            "import random\n"
            "# repro: lint-disable=DET001 -- fixture noise\n"
            "v = random.random()\n") == []

    def test_suppression_is_per_rule(self):
        ids = rule_ids(
            "import random, time\n"
            "v = random.random()  # repro: lint-disable=DET003\n")
        # wrong ID: DET001 still fires, and the DET003 disable is stale
        assert ids == ["DET001", "CODE002"]

    def test_code001_unknown_or_foreign_id(self):
        assert rule_ids("x = 1  # repro: lint-disable=NOPE999\n") == [
            "CODE001"]
        assert rule_ids("x = 1  # repro: lint-disable=MARCH001\n") == [
            "CODE001"]

    def test_code002_respects_select_filter(self):
        # Under --select DET001 the DET003 rule never ran, so its
        # suppression cannot be proven stale.
        config = LintConfig().select("DET001", "CODE002")
        assert rule_ids(
            "x = 1  # repro: lint-disable=DET003\n", config=config) == []

    def test_code003_syntax_error(self):
        report = lint_code_source("def broken(:\n", "src/repro/bad.py")
        assert [i.rule_id for i in report.issues] == ["CODE003"]
        assert report.issues[0].severity is Severity.ERROR


class TestConfigFiltering:
    SRC = "import random\nv = random.random()\nf = open('x', 'w')\n"

    def test_select_restricts_rules(self):
        config = LintConfig().select("IO001")
        assert rule_ids(self.SRC, config=config) == ["IO001"]

    def test_disable_subtracts(self):
        config = LintConfig().disable("IO001")
        assert rule_ids(self.SRC, config=config) == ["DET001"]

    def test_ignore_wins_over_select(self):
        config = LintConfig().select("IO001").disable("IO001")
        assert rule_ids(self.SRC, config=config) == []


class TestSelfLint:
    def test_shipped_tree_is_clean(self):
        reports = lint_code_paths(["src/repro"])
        dirty = [r for r in reports if not r.clean]
        assert combined_exit_code(reports) == EXIT_CLEAN, [
            str(i) for r in dirty for i in r.issues]
        assert len(reports) > 100  # the walk really covered the tree

    def test_tests_and_benchmarks_are_clean(self):
        reports = lint_code_paths(["tests", "benchmarks", "scripts"])
        assert combined_exit_code(reports) == EXIT_CLEAN, [
            str(i) for r in reports for i in r.issues]


class TestCliIntegration:
    def test_lint_code_clean_tree_exits_zero(self):
        from repro.cli import main

        assert main(["lint", "code", "src/repro"]) == 0

    def test_lint_code_dirty_fixture_flagged_in_json(self, tmp_path, capsys):
        from repro.cli import main

        fixture = tmp_path / "dirty.py"
        fixture.write_text(
            "import random\n"
            "v = random.random()\n"
            "bus.emit('no.such.event')\n")
        rc = main(["lint", "--format", "json", "code", str(fixture)])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 2
        assert doc["summary"]["exit_code"] == 2
        rules = {i["rule"] for i in doc["issues"]}
        assert rules == {"DET001", "OBS001"}
        locations = {i["location"] for i in doc["issues"]}
        assert f"{fixture}:2" in locations

    def test_lint_code_select_and_ignore_filters(self, tmp_path, capsys):
        from repro.cli import main

        fixture = tmp_path / "dirty.py"
        fixture.write_text("import random\nv = random.random()\n"
                           "f = open('x', 'w')\n")
        rc = main(["lint", "--format", "json", "--select", "IO",
                   "code", str(fixture)])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 2
        assert {i["rule"] for i in doc["issues"]} == {"IO001"}
        assert main(["lint", "--ignore", "DET,IO",
                     "code", str(fixture)]) == 0
        capsys.readouterr()

    def test_select_applies_to_all_packs(self, capsys):
        from repro.cli import main

        # demo-broken normally exits 2; selecting only a warning-level
        # netlist rule leaves no errors.
        rc = main(["lint", "--select", "NET002", "netlist:demo-broken"])
        capsys.readouterr()
        assert rc == 0

    def test_unknown_selector_exits_two(self, capsys):
        from repro.cli import main

        assert main(["lint", "--select", "NOPE", "march:MATS"]) == 2
        assert "unknown rule or rule prefix" in capsys.readouterr().err

    def test_missing_code_path_exits_two(self, capsys):
        from repro.cli import main

        assert main(["lint", "code", "/no/such/file.py"]) == 2
