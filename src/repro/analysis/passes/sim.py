"""SIM rules: misuse of the discrete-event engine.

These target the three engine-contract mistakes that do not crash but
corrupt results: a process `return`-ing a pending event instead of
yielding it (the event is silently dropped), triggering the same event
twice in straight-line code (raises at runtime, but only on the path
that hits it), and bare `except:` handlers.  In a process, a bare
`except:` swallows the exception a failed event throws into the
generator, `GeneratorExit` when the generator is closed, and
`KeyboardInterrupt`.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.passes.base import (
    LintPass,
    ModuleContext,
    Violation,
    functions_of,
    is_generator,
)

#: factory methods whose result is a pending Event
_EVENT_FACTORIES = {"timeout", "timeout_at", "event", "process"}
#: plain names whose call returns a pending Event (classes and ``any_of``)
_EVENT_CLASSES = {"Event", "Timeout", "Process", "Initialize", "AllOf", "any_of"}
_TRIGGER_METHODS = {"succeed", "fail"}


class SimContractPass(LintPass):
    rules = {
        "SIM001": "generator process returns a pending Event instead of yielding it",
        "SIM002": "event triggered twice in straight-line code",
        "SIM003": "bare `except:` swallows failed-event exceptions and GeneratorExit",
    }

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        for func in functions_of(ctx.tree):
            if is_generator(func):
                yield from self._check_returns(ctx, func)
            yield from self._check_double_trigger(ctx, func)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield Violation(
                    ctx.path,
                    node.lineno,
                    "SIM003",
                    "bare `except:` also catches the exception a failed event throws "
                    "into the process, GeneratorExit and KeyboardInterrupt",
                    "catch the specific exception the code expects",
                )

    # -- SIM001 -----------------------------------------------------------------
    def _check_returns(self, ctx: ModuleContext, func) -> Iterator[Violation]:
        for node in ast.walk(func):
            if not (isinstance(node, ast.Return) and isinstance(node.value, ast.Call)):
                continue
            call = node.value
            pending = False
            if isinstance(call.func, ast.Attribute) and call.func.attr in _EVENT_FACTORIES:
                pending = True
            elif isinstance(call.func, ast.Name) and call.func.id in _EVENT_CLASSES:
                pending = True
            if pending:
                yield Violation(
                    ctx.path,
                    node.lineno,
                    "SIM001",
                    "process returns a pending Event; the caller's `yield from` gets "
                    "the Event object, not its value",
                    "yield the event (or `return (yield event)`)",
                )

    # -- SIM002 -----------------------------------------------------------------
    def _check_double_trigger(self, ctx: ModuleContext, func) -> Iterator[Violation]:
        """Two .succeed()/.fail() on the same target in one statement list.

        Only straight-line siblings are flagged — an if/else that triggers
        on both branches is the normal pattern and stays silent.
        """
        for body in _statement_lists(func):
            seen: dict[str, int] = {}
            for stmt in body:
                if not isinstance(stmt, ast.Expr):
                    continue
                call = stmt.value
                if not (
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr in _TRIGGER_METHODS
                ):
                    continue
                try:
                    target = ast.unparse(call.func.value)
                except Exception:  # pragma: no cover - unparse is total on exprs
                    continue
                if target in seen:
                    yield Violation(
                        ctx.path,
                        stmt.lineno,
                        "SIM002",
                        f"`{target}` is triggered twice (first at line {seen[target]}); "
                        "the second trigger raises SimulationError at runtime",
                        "an Event can only be succeeded/failed once",
                    )
                else:
                    seen[target] = stmt.lineno
        return


def _statement_lists(func) -> Iterator[list[ast.stmt]]:
    """Every straight-line statement list in ``func`` (bodies of the function,
    loops, with-blocks, if/else branches — each branch separately)."""
    for node in ast.walk(func):
        for field in ("body", "orelse", "finalbody"):
            body = getattr(node, field, None)
            if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
                yield body
