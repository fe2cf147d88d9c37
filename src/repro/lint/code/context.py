"""Per-file analysis context for the ``code`` rule pack.

One :class:`CodeLintContext` wraps one parsed Python source file with
everything the DET/IO/OBS rules need to stay cheap and honest:

* the AST plus a parent map (for "is this comprehension fed straight
  into ``sorted``" style questions);
* an import map resolving local names back to dotted module paths, so
  ``import numpy as np; np.random.rand()`` and
  ``from random import randint; randint()`` both resolve;
* the per-line suppression table parsed from
  ``# repro: lint-disable=ID[,ID...]`` comments (the PR 1 suppression
  mechanism, applied at line granularity);
* role classification -- library vs test vs benchmark module, the
  atomic-write module, worker-side modules -- because the same syntax
  is a defect in one role and the whole point of the file in another
  (tests *deliberately* write corrupt files).

Everything here is pure syntax + name resolution: no imports of the
analysed code are ever executed.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path

#: Modules whose code runs inside worker processes.  The journal
#: process model (docs/observability.md) is "exactly one process -- the
#: campaign parent -- writes a journal"; an ``emit`` from these modules
#: would fork the event stream and break byte-identical journals.
WORKER_MODULES = frozenset({
    "repro.runner.evaluate",
    "repro.perf.executor",
    "repro.experiment.streaming.engine",
})

#: The one module allowed to use bare write/rename primitives: it *is*
#: the durable-write implementation everything else must go through.
ATOMIC_MODULE = "repro.runner.atomic"

#: Suppression directive inside a comment token, e.g.
#: ``# repro: lint-disable=<ID[,ID...]> -- why this is fine``.
_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*lint-disable=([A-Z][A-Z0-9]*(?:\s*,\s*[A-Z][A-Z0-9]*)*)")


def parse_suppressions(source: str) -> dict[int, frozenset[str]]:
    """Per-line suppression table from ``# repro: lint-disable=`` comments.

    Only genuine COMMENT tokens count (the directive spelled inside a
    docstring or string literal is inert), so the analyzer can document
    its own escape hatch without tripping over it.

    A trailing comment suppresses findings anchored to its own line
    (for a multi-line statement, the statement's first line).  A
    comment-only line suppresses the next code line instead, so the
    justification can sit above the statement it excuses; consecutive
    comment lines all bind to that same statement.

    Returns:
        1-based line number -> rule IDs suppressed on that line.
    """
    table: dict[int, frozenset[str]] = {}
    lines = source.splitlines()

    def attach_line(lineno: int) -> int:
        """Where a directive on ``lineno`` binds: here, or the code below."""
        if lineno <= len(lines) and lines[lineno - 1].lstrip().startswith(
                "#"):
            for offset, line in enumerate(lines[lineno:], start=lineno + 1):
                stripped = line.strip()
                if stripped and not stripped.startswith("#"):
                    return offset
        return lineno

    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError):
        return table  # unparsable tails have no reachable comments
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _SUPPRESS_RE.search(token.string)
        if match:
            ids = frozenset(tok.strip() for tok in match.group(1).split(",")
                            if tok.strip())
            if ids:
                lineno = attach_line(token.start[0])
                table[lineno] = table.get(lineno, frozenset()) | ids
    return table


def module_name_for(path: Path) -> str:
    """Best-effort dotted module name for a source path.

    ``src/repro/runner/atomic.py`` -> ``repro.runner.atomic``;
    ``tests/obs/test_bus.py`` -> ``tests.obs.test_bus``; paths outside
    any recognised root fall back to the bare stem.
    """
    parts = list(path.parts)
    for root in ("src", "tests", "benchmarks", "scripts"):
        if root in parts:
            tail = parts[parts.index(root):]
            if root == "src":
                tail = tail[1:]  # src/ is a layout dir, not a package
            break
    else:
        tail = [parts[-1]] if parts else []
    if not tail:
        return path.stem
    tail = list(tail)
    tail[-1] = Path(tail[-1]).stem
    if tail[-1] == "__init__":
        tail = tail[:-1]
    return ".".join(tail) or path.stem


@dataclass
class CodeLintContext:
    """Input to the ``code`` pack: one parsed source file.

    Attributes:
        path: Source path as given (used for display labels).
        module: Dotted module name (see :func:`module_name_for`).
        source: Full source text.
        tree: Parsed ``ast.Module``.
        suppressions: Line -> suppressed rule IDs
            (:func:`parse_suppressions`).
        module_aliases: Local name -> dotted module it is bound to
            (``np`` -> ``numpy``, ``random`` -> ``random``).
        from_imports: Local name -> fully dotted origin for
            ``from m import n [as alias]`` bindings
            (``randint`` -> ``random.randint``).
    """

    path: Path
    module: str
    source: str
    tree: ast.Module
    suppressions: dict[int, frozenset[str]] = field(default_factory=dict)
    module_aliases: dict[str, str] = field(default_factory=dict)
    from_imports: dict[str, str] = field(default_factory=dict)

    @classmethod
    def from_source(cls, source: str,
                    path: str | Path = "<string>") -> "CodeLintContext":
        """Build a context from source text (raises ``SyntaxError``)."""
        path = Path(path)
        tree = ast.parse(source, filename=str(path))
        ctx = cls(path=path, module=module_name_for(path), source=source,
                  tree=tree, suppressions=parse_suppressions(source))
        ctx._index_imports()
        return ctx

    # ------------------------------------------------------------------
    # Role classification
    # ------------------------------------------------------------------
    @property
    def is_test(self) -> bool:
        """Test module: under ``tests/`` or named ``test_*``/``conftest``."""
        name = self.path.stem
        return ("tests" in self.path.parts or name.startswith("test_")
                or name == "conftest")

    @property
    def is_bench(self) -> bool:
        """Benchmark module: wall-clock timers are its business."""
        return ("benchmarks" in self.path.parts
                or "bench" in self.module.rsplit(".", 1)[-1])

    @property
    def is_atomic_module(self) -> bool:
        """Whether this file *is* the sanctioned durable-write module."""
        return self.module == ATOMIC_MODULE

    @property
    def is_worker_module(self) -> bool:
        """Whether this file's code runs inside worker processes."""
        return self.module in WORKER_MODULES

    # ------------------------------------------------------------------
    # Name resolution
    # ------------------------------------------------------------------
    def _index_imports(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.module_aliases[alias.asname] = alias.name
                    else:
                        # ``import a.b.c`` binds ``a``; attribute chains
                        # through it resolve to their full dotted path.
                        root = alias.name.split(".")[0]
                        self.module_aliases[root] = root
            elif isinstance(node, ast.ImportFrom):
                if node.level:  # relative import: origin unknowable here
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    self.from_imports[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}")

    def resolve(self, node: ast.expr) -> str | None:
        """Dotted origin of a Name/Attribute chain, if resolvable.

        ``np.random.rand`` -> ``"numpy.random.rand"``; ``randint``
        (after ``from random import randint``) -> ``"random.randint"``;
        anything rooted in a local object (``self.rng.random``) ->
        ``None``.
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = node.id
        parts.reverse()
        if root in self.module_aliases:
            return ".".join([self.module_aliases[root], *parts])
        if root in self.from_imports:
            return ".".join([self.from_imports[root], *parts])
        if not parts:
            # A bare name that is not an import: only meaningful for
            # builtins (``open``, ``sorted``); report it as itself.
            return root
        return None

    def resolve_call(self, call: ast.Call) -> str | None:
        """:meth:`resolve` applied to a call's function expression."""
        return self.resolve(call.func)

    def parent_map(self) -> dict[ast.AST, ast.AST]:
        """Child -> parent for every node (built lazily, then cached)."""
        cached = getattr(self, "_parents", None)
        if cached is None:
            cached = {}
            for parent in ast.walk(self.tree):
                for child in ast.iter_child_nodes(parent):
                    cached[child] = parent
            self._parents = cached  # type: ignore[attr-defined]
        return cached

    def where(self, node: ast.AST) -> str:
        """Display location ``path:lineno`` for a finding anchor."""
        return f"{self.path}:{getattr(node, 'lineno', 0)}"
