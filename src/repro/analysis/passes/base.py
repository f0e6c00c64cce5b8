"""Shared infrastructure for lint passes.

A pass receives a fully-parsed :class:`ModuleContext` — the AST, the raw
source lines, the resolved import aliases and the per-line pragma table —
and yields :class:`Violation` records.  Pragma suppression is applied by
the driver, not by the passes, so a pass never needs to know about
``# repro: noqa=...`` comments.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Iterator

#: ``# repro: noqa=<RULE>``, or a comma list ``# repro: noqa=<RULE>,<RULE>``
_PRAGMA = re.compile(r"#\s*repro:\s*noqa=([A-Za-z0-9_,\s]+)")


@dataclass(frozen=True)
class Violation:
    """One rule hit: where, what, and how to fix it."""

    path: str
    line: int
    rule: str
    message: str
    hint: str = ""

    def render(self) -> str:
        text = f"{self.path}:{self.line}: {self.rule} {self.message}"
        if self.hint:
            text += f"  [hint: {self.hint}]"
        return text


@dataclass
class ModuleContext:
    """Everything a pass needs to know about one source module."""

    path: str
    source: str
    tree: ast.Module
    module_name: str = ""
    #: line number -> set of rule ids disabled on that line
    pragmas: dict[int, frozenset[str]] = field(default_factory=dict)
    #: (start, end, rules, anchor): function-scope pragmas — a pragma on a
    #: ``def`` or decorator line suppresses its rules for the whole body
    pragma_ranges: list[tuple[int, int, frozenset[str], int]] = field(default_factory=list)
    #: local alias -> fully dotted module/object path ("np" -> "numpy")
    aliases: dict[str, str] = field(default_factory=dict)

    @classmethod
    def parse(cls, source: str, path: str = "<string>", module_name: str = "") -> "ModuleContext":
        tree = ast.parse(source, filename=path)
        ctx = cls(path=path, source=source, tree=tree, module_name=module_name)
        ctx.pragmas = _collect_pragmas(source)
        ctx.pragma_ranges = _collect_pragma_ranges(tree, ctx.pragmas)
        ctx.aliases = _collect_aliases(tree)
        return ctx

    # -- name resolution -------------------------------------------------------
    def resolve(self, node: ast.AST) -> str:
        """Dotted path of a Name/Attribute chain with import aliases expanded.

        ``np.random.default_rng`` resolves to ``numpy.random.default_rng``
        when the module did ``import numpy as np``; unresolvable heads
        (locals, attributes of objects) keep their surface spelling.
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            parts.append(self.aliases.get(node.id, node.id))
        else:
            return ""
        return ".".join(reversed(parts))

    def suppressed(self, line: int, rule: str) -> bool:
        return self.suppressor(line, rule) is not None

    def suppressor(self, line: int, rule: str) -> "int | None":
        """Anchor line of the pragma suppressing ``rule`` at ``line``, if any.

        The anchor is where the pragma comment lives — the violation line
        itself for same-line pragmas, a ``def``/decorator line for
        function-scope pragmas.  The driver uses it to detect pragmas that
        no longer suppress anything (NOQA001).
        """
        if rule in self.pragmas.get(line, frozenset()):
            return line
        for start, end, rules, anchor in self.pragma_ranges:
            if start <= line <= end and rule in rules:
                return anchor
        return None


def _collect_pragmas(source: str) -> dict[int, frozenset[str]]:
    pragmas: dict[int, frozenset[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _PRAGMA.search(text)
        if match:
            rules = frozenset(
                part.strip().upper() for part in match.group(1).split(",") if part.strip()
            )
            if rules:
                pragmas[lineno] = rules
    return pragmas


def _collect_pragma_ranges(
    tree: ast.Module, pragmas: dict[int, frozenset[str]]
) -> list[tuple[int, int, frozenset[str], int]]:
    """Widen pragmas on ``def``/decorator lines to cover the whole function."""
    ranges: list[tuple[int, int, frozenset[str], int]] = []
    for func in functions_of(tree):
        header_lines = {func.lineno}
        header_lines.update(dec.lineno for dec in func.decorator_list)
        end = func.end_lineno or func.lineno
        for anchor in sorted(header_lines):
            rules = pragmas.get(anchor)
            if rules:
                ranges.append((min(header_lines), end, rules, anchor))
    return ranges


def _collect_aliases(tree: ast.Module) -> dict[str, str]:
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                aliases[local] = target
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if alias.name == "*":
                    continue
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


class LintPass:
    """Base class: a family of related rules sharing one AST walk."""

    #: rule id -> one-line description (the rule catalog)
    rules: dict[str, str] = {}

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        raise NotImplementedError


def is_generator(func: "ast.FunctionDef | ast.AsyncFunctionDef") -> bool:
    """True when ``func`` contains a yield that belongs to it (not to a
    nested function)."""
    for node in ast.walk(func):
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            owner = _owning_function(func, node)
            if owner is func:
                return True
    return False


def _owning_function(root: ast.AST, target: ast.AST):
    """Innermost function of ``root``'s tree containing ``target``."""
    owner = None
    stack = [(root, root if isinstance(root, (ast.FunctionDef, ast.AsyncFunctionDef)) else None)]
    while stack:
        node, current = stack.pop()
        if node is target:
            return current
        for child in ast.iter_child_nodes(node):
            child_owner = (
                child
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                else current
            )
            stack.append((child, child_owner))
    return owner


def functions_of(tree: ast.Module) -> Iterator["ast.FunctionDef | ast.AsyncFunctionDef"]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
