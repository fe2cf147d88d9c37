"""Import footprint: every import names its defining module.

The only re-export in the library is ``repro``'s lazy public table; the
sub-package ``__init__`` files hold docstrings, so importing one module
loads that module's own dependencies and nothing else.  Each check runs
in a fresh interpreter, where ``sys.modules`` starts clean.

Three static pins close the loop: every library module is reached from
an entry point, every function, class and method has a caller outside
``tests/``, and no module, of the library or of ``tests/``, imports a
name it does not use.
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
    out = run_python(textwrap.dedent(statement) + textwrap.dedent("""
        import json, sys
        print(json.dumps(sorted(m for m in sys.modules
                                if m.split(".")[0] == "repro")))
    """))
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


#: Modules only the oracles, calibration and ``--diagnose`` run: the
#: lot classifies with the behaviour model and the timing rule alone.
ORACLE_ONLY = {"repro.circuit.solver", "repro.memory.cell",
               "repro.memory.sram", "repro.tester.ate",
               "repro.tester.bitmap", "repro.experiment.diagnosis",
               "repro.faults.models"}


def oracle_only(loaded: set[str]) -> set[str]:
    return {m for m in loaded
            if m in ORACLE_ONLY or m.startswith("repro.march.")}


LOT = ("from repro.experiment.streaming import StreamingExperiment, "
       "StreamingRunner; StreamingRunner(StreamingExperiment("
       "n_devices=65_536, seed=1{})).run()")


def test_lot_entry_loads_no_oracle_module():
    loaded = loaded_after("import repro.experiment.streaming")
    assert oracle_only(loaded) == set()
    assert not loaded & {"repro.ifa.flow", "repro.runner.evaluate",
                         "repro.runner.units"}
    assert len(loaded) <= 27


def test_a_default_lot_runs_without_oracle_modules():
    assert oracle_only(loaded_after(LOT.format(""))) == set()


def test_a_diagnosed_lot_loads_the_diagnostician():
    loaded = loaded_after(LOT.format(", diagnose=True"))
    assert "repro.experiment.diagnosis" in loaded


def test_serve_entry_loads_no_circuit_solver():
    # ``repro serve`` up to its listen call, which refuses: the check
    # opens no socket.
    loaded = loaded_after("""
        import repro.cli
        import repro.service.app

        async def refuse(*args):
            raise OSError("refused")

        repro.service.app.serve = refuse
        assert repro.cli.main(["serve", "--port", "0"]) == 2
    """)
    assert loaded & {"repro.service.app", "repro.service.state"}
    assert not loaded & {"repro.circuit.solver", "repro.memory.cell"}


def test_a_served_request_loads_no_numpy():
    # The estimator's request path is plain ``math``: ``repro serve`` up
    # to its refused listen call, then one uncached batch request
    # dispatched in-process, leave numpy unloaded.
    out = run_python("""
        import json, sys
        import repro.cli
        import repro.service.app

        services = []

        async def refuse(service, *args):
            services.append(service)
            raise OSError("refused")

        repro.service.app.serve = refuse
        assert repro.cli.main(["serve", "--port", "0"]) == 2
        body = json.dumps({"queries": [
            {"geometry": {"rows": 512, "columns": 8, "bits_per_word": 8},
             "kind": kind} for kind in ("bridge", "open")]}).encode()
        response = services[0].dispatch("POST", "/v1/estimate", body)
        print(json.dumps({"status": response.status,
                          "cache": response.headers["X-Cache"],
                          "numpy": "numpy" in sys.modules}))
    """)
    assert json.loads(out) == {"status": 200, "cache": "miss",
                               "numpy": False}


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


#: Library names the name pin lets stand without a caller outside
#: ``tests/``, each with its reason.
KEEP = {
    "decoder_open_to_delay_fault":
        "EXPERIMENTS.md cites it for the decoder-open / MOVI result",
}

#: Decorators whose call registers the function in a lint rule table,
#: which is its caller.
REGISTRARS = {"rule", "_register"}


def is_all(node: ast.AST) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


def names_in(tree: ast.AST) -> set[str]:
    """Every name ``tree`` uses: identifiers, attributes, imported
    aliases and bare-identifier strings (``getattr`` and tracer targets)
    outside ``__all__``."""
    listed = {id(c) for node in ast.walk(tree) if is_all(node)
              for c in ast.walk(node.value)}
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier() and id(node) not in listed):
            names.add(node.value)
    return names


@functools.cache
def used_outside_tests() -> frozenset[str]:
    """The names the library, benchmarks, examples, scripts and e2e
    workloads use."""
    root = SRC.parent
    files = [*SRC.joinpath("repro").rglob("*.py")]
    for directory in ENTRY_DIRS:
        files += root.joinpath(directory).rglob("*.py")
    used: set[str] = set()
    for path in files:
        used |= names_in(ast.parse(path.read_text()))
    return frozenset(used)


def registered(node: ast.AST) -> bool:
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id in REGISTRARS
               for d in getattr(node, "decorator_list", ()))


def uncalled_names(path: Path) -> list[str]:
    """Functions, classes and methods of ``path`` no non-test file uses."""
    used = used_outside_tests()
    return [node.name for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not (node.name.startswith("__")
                     and node.name.endswith("__"))
            and not registered(node)
            and node.name not in used and node.name not in KEEP]


@pytest.mark.parametrize("module", sorted(LIBRARY))
def test_library_name_has_a_caller_outside_tests(module):
    assert uncalled_names(LIBRARY[module]) == []


#: Defaulted parameters the parameter pin lets stand although no call
#: outside ``tests/`` passes them, each with its reason.
KEEP_PARAMETERS = {
    "repro.cli.main(argv)":
        "the console entry point: ``python -m repro`` calls it bare, "
        "so its argument vector is passed only in-process",
    "repro.ifa.extraction.IfaExtractor(calibrated)":
        "ROADMAP item 4 decides whether the layout path stays",
}


def call_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


@functools.cache
def calls_outside_tests() -> dict[str, list[ast.Call]]:
    """The calls of the library, benchmarks, examples, scripts and e2e
    workloads, by the name they call."""
    root = SRC.parent
    files = [*SRC.joinpath("repro").rglob("*.py")]
    for directory in ENTRY_DIRS:
        files += root.joinpath(directory).rglob("*.py")
    calls: dict[str, list[ast.Call]] = {}
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and call_name(node):
                calls.setdefault(call_name(node), []).append(node)
    return calls


def defaulted_parameters(path: Path):
    """``(callee, label, parameter, position)`` for every defaulted
    parameter of a function or method of ``path``.

    The callee is the name a call uses (the class for ``__init__``);
    the position counts arguments after ``self``/``cls`` and is
    ``None`` for a keyword-only parameter.
    """
    tree = ast.parse(path.read_text())
    owners = [(None, tree.body)] + [
        (node.name, node.body) for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)]
    for owner, body in owners:
        for fn in body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            bound = owner is not None and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in fn.decorator_list)
            if owner is None:
                callee = label = fn.name
            elif fn.name == "__init__":
                callee = label = owner
            else:
                callee, label = fn.name, f"{owner}.{fn.name}"
            args = fn.args.posonlyargs + fn.args.args
            first = len(args) - len(fn.args.defaults)
            for index in range(first, len(args)):
                yield callee, label, args[index].arg, index - bound
            for arg, default in zip(fn.args.kwonlyargs,
                                    fn.args.kw_defaults):
                if default is not None:
                    yield callee, label, arg.arg, None


def passes(call: ast.Call, parameter: str, position: int | None) -> bool:
    if any(k.arg in (parameter, None) for k in call.keywords):
        return True
    return position is not None and (
        len(call.args) > position
        or any(isinstance(a, ast.Starred) for a in call.args))


def unpassed_parameters(module: str) -> list[str]:
    """``module.callee(parameter)`` for every defaulted parameter of
    ``module`` that no call outside ``tests/`` passes."""
    calls = calls_outside_tests()
    return [f"{module}.{label}({parameter})"
            for callee, label, parameter, position
            in defaulted_parameters(LIBRARY[module])
            if not any(passes(call, parameter, position)
                       for call in calls.get(callee, ()))]


@pytest.mark.parametrize("module", sorted(LIBRARY))
def test_defaulted_parameter_is_passed_outside_tests(module):
    assert [key for key in unpassed_parameters(module)
            if key not in KEEP_PARAMETERS] == []


@pytest.mark.parametrize("key", sorted(KEEP_PARAMETERS))
def test_kept_parameter_still_exists_without_a_caller(key):
    module = max((m for m in LIBRARY if key.startswith(f"{m}.")), key=len)
    assert key in unpassed_parameters(module)


@pytest.mark.parametrize("name", sorted(KEEP))
def test_kept_name_still_exists_without_a_caller(name):
    defined = {node.name for path in LIBRARY.values()
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef))}
    assert name in defined and name not in used_outside_tests()


def module_level_imports(tree: ast.Module):
    """Import statements of the module body, also under a top-level
    ``if`` or ``try``."""
    stack: list[ast.AST] = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.If, ast.Try)):
            stack.extend(ast.iter_child_nodes(node))


def names_read(tree: ast.AST) -> set[str]:
    """Identifiers ``tree`` reads, including quoted annotations, plus
    the strings of ``__all__`` (a listed import is a re-export)."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif is_all(node):
            names |= {c.value for c in ast.walk(node.value)
                      if isinstance(c, ast.Constant)}
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef,
                               ast.AsyncFunctionDef)):
            annotation = getattr(node, "annotation", None) or getattr(
                node, "returns", None)
            for part in ast.walk(annotation) if annotation else ():
                if (isinstance(part, ast.Constant)
                        and isinstance(part.value, str)):
                    names |= {n.id for n in ast.walk(
                        ast.parse(part.value, mode="eval"))
                        if isinstance(n, ast.Name)}
    return names


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    read = names_read(tree)
    unused = []
    for node in module_level_imports(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in read:
                unused.append(f"line {node.lineno}: {bound}")
    return sorted(unused)


#: The modules the unused-import pin reads: the library's and the test
#: suite's, ``__init__`` files excepted.
IMPORTING = {m: p for m, p in LIBRARY.items() if p.name != "__init__.py"} | {
    ".".join(p.relative_to(SRC.parent).with_suffix("").parts): p
    for p in SRC.parent.joinpath("tests").rglob("*.py")
    if p.name != "__init__.py"}


@pytest.mark.parametrize("module", sorted(IMPORTING))
def test_module_imports_only_what_it_uses(module):
    assert unused_imports(IMPORTING[module]) == []


def reexported_names(path: Path) -> list[str]:
    """The names ``path``'s ``__all__`` lists that it imports."""
    tree = ast.parse(path.read_text())
    imported = {alias.asname or alias.name.split(".")[0]
                for node in module_level_imports(tree)
                for alias in node.names}
    listed = {c.value for node in tree.body if is_all(node)
              for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return sorted(listed & imported)


@pytest.mark.parametrize("module", sorted(
    m for m, p in LIBRARY.items() if p.name != "__init__.py"))
def test_all_lists_only_names_the_module_defines(module):
    # The one re-export is ``repro``'s lazy public table; a module's
    # ``__all__`` names what it defines, never what it imports.
    assert reexported_names(LIBRARY[module]) == []
