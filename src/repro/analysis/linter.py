"""Determinism & unit-safety linter over ``src/repro/**``.

The driver parses each module once, hands the :class:`ModuleContext` to
every registered pass, applies ``# repro: noqa=<rule>`` pragmas (the only
way to suppress a finding), reports pragmas that no longer suppress
anything (NOQA001), and returns sorted, de-duplicated :class:`Violation`
records.

Used three ways:

* ``repro lint [paths...]`` (CLI, exit 1 on violations),
* the pytest session gate (``repro.analysis.pytest_plugin``),
* programmatically: ``lint_source(...)`` in the rule unit tests and the
  mutation corpus (``tests/test_lint_corpus.py``).
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Optional, Sequence

from repro.analysis.passes import ALL_PASSES, LintPass
from repro.analysis.passes import RULE_CATALOG as _PASS_CATALOG
from repro.analysis.passes.base import ModuleContext, Violation

__all__ = [
    "DRIVER_RULES",
    "Linter",
    "RULE_CATALOG",
    "Violation",
    "lint_paths",
    "lint_source",
    "source_root",
]

#: rules emitted by the driver itself, not by any pass
DRIVER_RULES: dict[str, str] = {
    "NOQA001": "pragma suppresses a rule that does not fire here (stale) or does not exist",
}

#: rule id -> one-line description, the complete catalog (passes + driver)
RULE_CATALOG: dict[str, str] = {**_PASS_CATALOG, **DRIVER_RULES}


class Linter:
    """Configurable driver: which passes run, which rules are selected."""

    def __init__(
        self,
        passes: Optional[Sequence[type[LintPass]]] = None,
        select: Optional[Iterable[str]] = None,
        ignore: Optional[Iterable[str]] = None,
        check_pragmas: bool = True,
    ):
        self.passes: list[LintPass] = [cls() for cls in (passes or ALL_PASSES)]
        self.select = frozenset(r.upper() for r in select) if select else None
        self.ignore = frozenset(r.upper() for r in ignore) if ignore else frozenset()
        self.check_pragmas = check_pragmas

    # -- single module -----------------------------------------------------------
    def lint_source(
        self, source: str, path: str = "<string>", module_name: str = ""
    ) -> list[Violation]:
        try:
            ctx = ModuleContext.parse(source, path=path, module_name=module_name)
        except SyntaxError as exc:
            return [
                Violation(
                    path,
                    exc.lineno or 1,
                    "PARSE",
                    f"syntax error: {exc.msg}",
                    "file must parse before it can be linted",
                )
            ]

        # Suppression usage is tracked on the *unfiltered* stream so a
        # pragma for a deselected rule still counts as used when the rule
        # fires — select/ignore narrow the report, not the analysis.
        found: set[Violation] = set()
        used: set[tuple[int, str]] = set()
        for lint_pass in self.passes:
            for violation in lint_pass.check(ctx):
                anchor = ctx.suppressor(violation.line, violation.rule)
                if anchor is not None:
                    used.add((anchor, violation.rule))
                    continue
                found.add(violation)

        if self.check_pragmas:
            found.update(self._stale_pragmas(ctx, used))

        selected = [
            v
            for v in found
            if (self.select is None or v.rule in self.select) and v.rule not in self.ignore
        ]
        return sorted(selected, key=lambda v: (v.path, v.line, v.rule, v.message))

    def _stale_pragmas(
        self, ctx: ModuleContext, used: set[tuple[int, str]]
    ) -> Iterable[Violation]:
        """NOQA001: pragma rules that suppressed nothing this run.

        Staleness is only judged for rules whose pass actually ran — a
        custom pass selection must not flag pragmas it cannot evaluate.
        Unknown rule ids (in no catalog at all) are always reported.
        """
        judged = {rule for lint_pass in self.passes for rule in lint_pass.rules}
        for anchor in sorted(ctx.pragmas):
            for rule in sorted(ctx.pragmas[anchor]):
                if (anchor, rule) in used or rule == "NOQA001":
                    continue
                if rule not in RULE_CATALOG:
                    message = f"pragma references unknown rule `{rule}`"
                    hint = "check the rule id against `repro explain --rules`"
                elif rule in judged:
                    message = f"pragma suppresses `{rule}`, which does not fire here"
                    hint = "the finding was fixed; delete the stale pragma"
                else:
                    continue
                if ctx.suppressed(anchor, "NOQA001"):
                    continue
                yield Violation(ctx.path, anchor, "NOQA001", message, hint)

    def lint_file(self, path: "str | Path") -> list[Violation]:
        path = Path(path)
        return self.lint_source(
            path.read_text(encoding="utf-8"),
            path=str(path),
            module_name=_module_name_for(path),
        )

    def lint_paths(self, paths: Iterable["str | Path"]) -> list[Violation]:
        # One globally sorted, de-duplicated worklist (not per-directory)
        # so the report is byte-stable regardless of argument order or
        # filesystem enumeration quirks.
        files: set[Path] = set()
        for path in paths:
            path = Path(path)
            if path.is_dir():
                files.update(path.rglob("*.py"))
            elif path.suffix == ".py":
                files.add(path)
        violations: list[Violation] = []
        for file in sorted(files, key=str):
            violations.extend(self.lint_file(file))
        return violations


def _module_name_for(path: Path) -> str:
    """Best-effort dotted module name ('.../src/repro/sim/rng.py' -> 'repro.sim.rng')."""
    parts = list(path.with_suffix("").parts)
    for anchor in ("repro",):
        if anchor in parts:
            return ".".join(parts[parts.index(anchor):])
    return path.stem


def source_root() -> Path:
    """The installed ``repro`` package directory (default lint target)."""
    import repro

    return Path(repro.__file__).resolve().parent


def lint_paths(
    paths: Optional[Iterable["str | Path"]] = None,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> list[Violation]:
    """Lint ``paths`` (default: the repro package itself)."""
    linter = Linter(select=select, ignore=ignore)
    return linter.lint_paths(paths if paths is not None else [source_root()])


def lint_source(source: str, path: str = "<string>", **kwargs) -> list[Violation]:
    return Linter(**kwargs).lint_source(source, path=path)


def render_report(violations: Sequence[Violation]) -> str:
    """The CLI / pytest-gate report: one line per hit plus a summary."""
    if not violations:
        return "repro lint: clean"
    lines = [v.render() for v in violations]
    by_rule: dict[str, int] = {}
    for v in violations:
        by_rule[v.rule] = by_rule.get(v.rule, 0) + 1
    summary = ", ".join(f"{rule} x{count}" for rule, count in sorted(by_rule.items()))
    lines.append(f"repro lint: {len(violations)} violation(s) ({summary})")
    return "\n".join(lines)
