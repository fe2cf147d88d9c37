"""Import footprint: every import names its defining module.

The only re-export in the library is ``repro``'s lazy public table; the
sub-package ``__init__`` files hold docstrings, so importing one module
loads that module's own dependencies and nothing else.  Each check runs
in a fresh interpreter, where ``sys.modules`` starts clean.
"""

import ast
import functools
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


#: Where the library is entered: the console command, the canonical
#: report, the lazy public table (read below) and every script, example,
#: benchmark and e2e workload of the repository.
ENTRY_MODULES = ("repro.cli", "repro.__main__", "repro.analysis.report")
ENTRY_DIRS = ("benchmarks", "examples", "scripts", "e2ebench")


def module_of(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def imports_of(path: Path) -> set[str]:
    """Every module an absolute ``import`` anywhere in ``path`` may name.

    ``ast.walk`` visits function bodies too, so deferred imports count.
    ``from a import b`` yields both ``a`` and ``a.b``; the caller keeps
    only names that are modules of the library.
    """
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


LIBRARY = {module_of(p): p for p in SRC.joinpath("repro").rglob("*.py")}


@functools.cache
def reached_modules() -> frozenset[str]:
    """The library modules an import chain from an entry point loads."""
    import repro

    frontier = set(ENTRY_MODULES) | set(repro._EXPORTS.values())
    root = SRC.parent
    for directory in ENTRY_DIRS:
        for script in root.joinpath(directory).rglob("*.py"):
            frontier |= imports_of(script)
    reached: set[str] = set()
    while frontier:
        name = frontier.pop()
        # Importing ``a.b.c`` runs the ``__init__`` of ``a`` and ``a.b``.
        parts = name.split(".")
        for depth in range(1, len(parts) + 1):
            prefix = ".".join(parts[:depth])
            if prefix in LIBRARY and prefix not in reached:
                reached.add(prefix)
                frontier |= imports_of(LIBRARY[prefix])
    return frozenset(reached)


@pytest.mark.parametrize("module", sorted(LIBRARY))
def test_library_module_is_reached_from_an_entry_point(module):
    assert module in reached_modules(), f"no entry point reaches {module}"
