"""Import footprint: every import names its defining module.

The only re-export in the library is ``repro``'s lazy public table; the
sub-package ``__init__`` files hold docstrings, so importing one module
loads that module's own dependencies and nothing else.  Each check runs
in a fresh interpreter, where ``sys.modules`` starts clean.
"""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: The package ``__init__`` files that hold code, not only a docstring:
#: the lazy public table, the lint rule-pack registries and the
#: streaming engine's front door.
INITS_WITH_IMPORTS = {
    "repro/__init__.py",
    "repro/lint/__init__.py",
    "repro/lint/code/__init__.py",
    "repro/experiment/streaming/__init__.py",
}


def run_python(script: str) -> str:
    out = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)], check=True,
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)))
    return out.stdout


def loaded_after(statement: str) -> set[str]:
    """The ``repro`` modules a fresh interpreter holds after ``statement``."""
    out = run_python(f"""
        import json, sys
        {statement}
        print(json.dumps(sorted(m for m in sys.modules
                                if m.split(".")[0] == "repro")))
    """)
    return set(json.loads(out))


def test_bare_import_loads_no_submodule():
    assert loaded_after("import repro") == {"repro"}


def test_streaming_engine_skips_unrelated_subsystems():
    loaded = loaded_after("import repro.experiment.streaming")
    unrelated = {"repro.bist", "repro.tester.shmoo", "repro.tester.iddq",
                 "repro.tester.movi", "repro.core.estimator",
                 "repro.march.synthesis", "repro.faults.simulator",
                 "repro.experiment.montecarlo", "repro.runner.chaos"}
    assert "repro.experiment.streaming.engine" in loaded
    assert not loaded & unrelated


def test_public_names_resolve_lazily():
    out = run_python("""
        import json, repro
        names = list(repro.__all__)
        star = {}
        exec("from repro import *", star)
        print(json.dumps({
            "getattr": [n for n in names if getattr(repro, n, None) is None],
            "star": [n for n in names if n not in star],
            "dir": [n for n in names if n not in dir(repro)],
        }))
    """)
    assert json.loads(out) == {"getattr": [], "star": [], "dir": []}


def test_public_table_matches_all():
    import repro

    assert set(repro.__all__) == set(repro._EXPORTS) | {"__version__"}
    with pytest.raises(AttributeError):
        getattr(repro, "NoSuchName")


def test_package_inits_import_nothing():
    offenders = []
    for init in sorted(SRC.rglob("__init__.py")):
        rel = init.relative_to(SRC).as_posix()
        if rel in INITS_WITH_IMPORTS:
            continue
        tree = ast.parse(init.read_text())
        if any(isinstance(node, (ast.Import, ast.ImportFrom))
               for node in ast.walk(tree)):
            offenders.append(rel)
    assert offenders == []
