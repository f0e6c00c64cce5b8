"""No module imports a name it never uses, and no definition goes unreached.

The CI ``check`` job runs ruff, which selects F401, but ruff may not be
installed where the tests run.  The first scan is the same check in the
standard library: an import is unused when no name in its scope (nested
scopes included) reads it, no string annotation names it, ``__all__``
does not list it, and its line carries no ``noqa`` pragma.  ``__init__``
modules are skipped, since their imports are the package's re-exports,
and so is ``from __future__ import ...``.

The second scan flags a top-level function or class of ``src/repro``
that nothing in ``src/repro``, ``scripts/`` or ``examples/`` references,
so that code only tests reach does not pass for code that runs.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src/repro", "tests", "scripts")
#: where a definition counts as referenced
REFERRING = ("src/repro", "scripts", "examples")

_NOQA = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9, ]+))?", re.IGNORECASE)
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _noqa(line: str) -> bool:
    match = _NOQA.search(line)
    if not match:
        return False
    codes = match.group("codes")
    return codes is None or "F401" in codes.upper()


def _annotation_names(node: ast.AST) -> set[str]:
    """Names read by an annotation, looking inside string annotations."""
    names: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                names |= _annotation_names(ast.parse(sub.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def _annotations(node: ast.AST):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = node.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
            if arg is not None and arg.annotation is not None:
                yield arg.annotation
        if node.returns is not None:
            yield node.returns
    elif isinstance(node, ast.AnnAssign):
        yield node.annotation


def _used_names(scope: ast.AST) -> set[str]:
    """Every name read anywhere under ``scope``, annotations included."""
    used: set[str] = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        for annotation in _annotations(node):
            used |= _annotation_names(annotation)
    return used


def _exported(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                if node.value is not None:
                    for sub in ast.walk(node.value):
                        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                            names.add(sub.value)
    return names


def _imports_of(scope: ast.AST):
    """Import statements whose bindings live in ``scope`` (not in a nested one)."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def unused_imports(source: str) -> list[tuple[int, str]]:
    """``(line, bound name)`` of every unused import in ``source``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    exported = _exported(tree)
    found = []
    scopes = [tree] + [n for n in ast.walk(tree) if isinstance(n, _SCOPES)]
    for scope in scopes:
        used = _used_names(scope) | (exported if scope is tree else set())
        for node in _imports_of(scope):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if alias.name == "*" or bound in used:
                    continue
                end = node.end_lineno or node.lineno
                if any(_noqa(lines[i - 1]) for i in range(alias.lineno, end + 1)):
                    continue
                found.append((alias.lineno, bound))
    return sorted(found)


def _modules():
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name != "__init__.py":
                yield path


def test_scan_finds_what_f401_would():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from typing import TYPE_CHECKING, Optional\n"
        "import json  # noqa: F401\n"
        "import re  # noqa: E501\n"
        "if TYPE_CHECKING:\n"
        "    from pathlib import Path\n"
        "__all__ = ['sys']\n"
        "def f(p: 'Path') -> None:\n"
        "    import math\n"
        "    import zlib\n"
        "    def g():\n"
        "        return math.pi\n"
        "    return g\n"
        "class C:\n"
        "    import abc\n"
    )
    assert unused_imports(source) == [
        (2, "os"), (3, "Optional"), (5, "re"), (11, "zlib"), (16, "abc"),
    ]


def test_no_unused_imports():
    found = [
        f"{path.relative_to(ROOT).as_posix()}:{line}: {name}"
        for path in _modules()
        for line, name in unused_imports(path.read_text())
    ]
    assert found == []


# --- definitions that nothing references ---------------------------------------
#: a name spelled as a string: a shard runner's ``module:function`` or a
#: lint table's ``repro.units.kb`` (an f-string's tail, ``:run_whole``, too)
_SPELLED = re.compile(r"[.:]?(?:[A-Za-z_]\w*[.:])*([A-Za-z_]\w*)")

#: unreferenced definitions kept on purpose, each with its reason
UNREFERENCED = {
    "src/repro/experiments/registry.py:clear_memos": (
        "a no-op that bench/tests/test_bench.py still calls; it goes with "
        "that call in the next change to the benchmark harness"
    ),
    "src/repro/units.py:ticks_to_seconds": (
        "the oracle for delay_to_ticks: tests/test_sim_core.py round-trips "
        "every tick through it"
    ),
    "src/repro/npb/suite.py:get_verifier": (
        "the entry to the NPB verification kernels, test-only evidence that "
        "the skeletons' dataflow is real (ROADMAP.md, the Parked note)"
    ),
}


def _references(tree: ast.Module, init: bool) -> set[str]:
    """Every name a module reads, imports or spells as a string.

    An ``__init__`` module's imports and ``__all__`` are its package's
    re-exports, so there only loads and attribute reads count.
    """
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif init:
            continue
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            match = _SPELLED.fullmatch(node.value)
            if match:
                names.add(match.group(1))
    return names


def unreferenced(defining: dict[str, str], referring: dict[str, str]) -> list[str]:
    """``path:name`` of each undecorated top-level function or class in
    ``defining`` that no module in ``referring`` references (both map a
    path to its source)."""
    used: set[str] = set()
    for path, source in referring.items():
        used |= _references(ast.parse(source), path.endswith("__init__.py"))
    return sorted(
        f"{path}:{node.name}"
        for path, source in defining.items()
        for node in ast.parse(source).body
        if isinstance(node, _SCOPES) and not node.decorator_list and node.name not in used
    )


def _exempt(entry: str) -> bool:
    """CLI handlers and pytest hooks are called by name from outside."""
    path, name = entry.split(":")
    return (path == "src/repro/cli.py" and name.startswith("_cmd_")) or (
        path == "src/repro/analysis/pytest_plugin.py" and name.startswith("pytest_")
    )


def test_definition_scan_flags_what_nothing_references():
    defining = {
        "pkg/mod.py": (
            "def by_name(): pass\n"
            "def by_attribute(): pass\n"
            "def by_runner_string(): pass\n"
            "def by_dotted_string(): pass\n"
            "def only_reexported(): pass\n"
            "@register\n"
            "def decorated(): pass\n"
            "class Unused: pass\n"
        ),
    }
    referring = {
        **defining,
        "pkg/__init__.py": (
            "from pkg.mod import only_reexported\n__all__ = ['only_reexported']\n"
        ),
        "pkg/user.py": (
            "import pkg.mod\n"
            "from pkg.mod import by_name as alias\n"
            "RUNNER = 'pkg.mod:by_runner_string'\n"
            "TABLE = {'pkg.mod.by_dotted_string': alias}\n"
            "pkg.mod.by_attribute()\n"
        ),
    }
    assert unreferenced(defining, referring) == [
        "pkg/mod.py:Unused", "pkg/mod.py:only_reexported",
    ]


def test_every_definition_is_referenced():
    referring = {
        path.relative_to(ROOT).as_posix(): path.read_text()
        for top in REFERRING
        for path in sorted((ROOT / top).rglob("*.py"))
    }
    defining = {
        path: source for path, source in referring.items() if path.startswith("src/repro/")
    }
    found = [entry for entry in unreferenced(defining, referring) if not _exempt(entry)]
    assert found == sorted(UNREFERENCED)
