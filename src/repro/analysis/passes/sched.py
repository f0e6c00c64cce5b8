"""SCHED rules: dependence on same-timestamp heap tie-breaking.

The event queue orders entries ``(time, priority, seq, event)``; two events
at the same timestamp with the same priority fire in *insertion* order
(``seq``).  Code is schedule-sensitive when its observable behaviour
changes if that tie-break changes — exactly what the incremental
max-min allocator rewrite (ROADMAP) will perturb.  The runtime
counterpart to these static rules is ``repro sanitize --perturb``
(:mod:`repro.analysis.perturb`), which re-runs a scenario under permuted
tie-breaking and checks byte-identity.

* SCHED001 — chains of zero-delay ``timeout(0)`` / ``schedule(..., 0)``
  calls with no explicit priority, or ``call_at``/``timeout_at`` at the
  current tick: which chain runs first is decided by ``seq`` alone.
* SCHED002 — iterating a *set-typed variable* (tracked by dataflow, so a
  ``set()`` built three statements earlier is caught) while scheduling
  events or feeding a trace hasher.  Complements DET006, which only
  matches literal set expressions in the ``for`` header.
* SCHED003 — hand-built priority-queue entries ``(time, payload)`` with no
  sequence tie-breaker: equal-time entries compare on the payload (a
  crash or an id-dependent order).
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional

from repro.analysis.dataflow import ForwardAnalysis, functions_of, target_key
from repro.analysis.passes.base import LintPass, ModuleContext, Violation
from repro.analysis.passes.det import _SCHEDULING_ATTRS

#: set-returning builtins / methods
_SET_CALLS = frozenset({"set", "frozenset"})
_SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference", "copy"}
)
#: element spelling that marks a queue entry as carrying its own tie-breaker
_SEQ_LIKE = re.compile(r"(seq|sequence|counter|count|uid|serial|order|tick)")
#: first-element spelling that marks a queue entry as time-ordered
_TIME_LIKE = re.compile(r"(^|_)(time|now|when|deadline|at|t)(_|$)|\bnow\b")
#: receiver spelling that marks a ``.update(...)`` call as a trace hasher
_HASHER_LIKE = re.compile(r"(hash|hasher|digest|trace)")


class _SetTracker(ForwardAnalysis):
    """Dataflow over one function: which variables hold sets.

    The abstract value is the string ``"set"`` or unknown.  Set-ness
    survives assignment, ``|``/``&``/``-`` on two sets, the non-mutating
    set methods, and conditional joins where both branches agree;
    ``sorted(s)`` and ``list(s)`` correctly drop it.
    """

    def __init__(self, ctx: ModuleContext, pass_: "SchedulePass"):
        super().__init__(ctx)
        self.pass_ = pass_

    def _eval_Set(self, node: ast.Set, env: Dict[str, Optional[str]]) -> Optional[str]:
        for elt in node.elts:
            self.eval(elt, env)
        return "set"

    def _eval_SetComp(self, node: ast.SetComp, env: Dict[str, Optional[str]]) -> Optional[str]:
        return "set"

    def _eval_Call(self, node: ast.Call, env: Dict[str, Optional[str]]) -> Optional[str]:
        for arg in node.args:
            self.eval(arg, env)
        for kw in node.keywords:
            self.eval(kw.value, env)
        if self.ctx.resolve(node.func) in _SET_CALLS:
            return "set"
        if isinstance(node.func, ast.Attribute):
            receiver = self.eval(node.func.value, env)
            if receiver == "set" and node.func.attr in _SET_METHODS:
                return "set"
        return None

    def _eval_Name(self, node: ast.Name, env: Dict[str, Optional[str]]) -> Optional[str]:
        return env.get(node.id)

    def _eval_Attribute(self, node: ast.Attribute, env: Dict[str, Optional[str]]) -> Optional[str]:
        key = target_key(node)
        if key is not None:
            return env.get(key)
        self.eval(node.value, env)
        return None

    def _eval_BinOp(self, node: ast.BinOp, env: Dict[str, Optional[str]]) -> Optional[str]:
        left = self.eval(node.left, env)
        right = self.eval(node.right, env)
        if (
            isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor))
            and left == "set"
            and right == "set"
        ):
            return "set"
        return None

    def on_for(
        self, stmt: "ast.For | ast.AsyncFor", iter_value: Optional[str],
        env: Dict[str, Optional[str]],
    ) -> None:
        # Literal sets in the header are DET006's beat; only tracked
        # *variables* (the cases DET006 cannot see) are reported here.
        if iter_value != "set" or not isinstance(stmt.iter, (ast.Name, ast.Attribute)):
            return
        if _body_feeds_schedule_or_hash(stmt):
            self.pass_.sched002_lines.append(stmt.lineno)


def _body_feeds_schedule_or_hash(loop: "ast.For | ast.AsyncFor") -> bool:
    for stmt in loop.body:
        for node in ast.walk(stmt):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            attr = node.func.attr
            if attr in _SCHEDULING_ATTRS or attr == "update_text":
                return True
            if attr == "update":
                receiver = node.func.value
                spelling = ""
                if isinstance(receiver, ast.Name):
                    spelling = receiver.id
                elif isinstance(receiver, ast.Attribute):
                    spelling = receiver.attr
                if _HASHER_LIKE.search(spelling.lower()):
                    return True
    return False


class SchedulePass(LintPass):
    rules = {
        "SCHED001": "zero-delay schedule chain relies on insertion-order tie-breaking",
        "SCHED002": "iteration over a set-typed variable feeds the scheduler or a trace hash",
        "SCHED003": "heap entry `(time, payload)` lacks a sequence tie-breaker",
    }

    def __init__(self) -> None:
        self.sched002_lines: List[int] = []

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        self.sched002_lines = []
        tracker = _SetTracker(ctx, self)
        module_env = tracker.analyze_module_body()
        for func in functions_of(ctx.tree):
            tracker.analyze_function(func, base_env=module_env)
            yield from self._check_zero_delay_chain(ctx, func)
        for line in sorted(set(self.sched002_lines)):
            yield Violation(
                ctx.path,
                line,
                "SCHED002",
                "loop over a set-typed variable schedules events or feeds a trace hash",
                "iterate sorted(...) or keep the collection as an insertion-ordered list",
            )
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                yield from self._check_heap_entry(ctx, node)

    # -- SCHED001 -------------------------------------------------------------
    def _check_zero_delay_chain(
        self, ctx: ModuleContext, func: "ast.FunctionDef | ast.AsyncFunctionDef"
    ) -> Iterator[Violation]:
        plain_hits: List[int] = []
        looped_hits: List[int] = []
        for node in ast.walk(func):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not func:
                continue
            if isinstance(node, ast.Call) and _is_zero_delay_schedule(node):
                if _inside_loop(func, node):
                    looped_hits.append(node.lineno)
                else:
                    plain_hits.append(node.lineno)
        if looped_hits:
            yield Violation(
                ctx.path,
                min(looped_hits),
                "SCHED001",
                "zero-delay schedule inside a loop: same-timestamp firing order "
                "is decided by heap insertion order alone",
                "pass an explicit priority, or a strictly positive delay",
            )
        elif len(plain_hits) >= 2:
            yield Violation(
                ctx.path,
                min(plain_hits),
                "SCHED001",
                f"{len(plain_hits)} zero-delay schedules in one function "
                f"(lines {', '.join(map(str, sorted(plain_hits)))}) race on "
                "insertion-order tie-breaking",
                "pass an explicit priority, or a strictly positive delay",
            )

    # -- SCHED003 -------------------------------------------------------------
    def _check_heap_entry(self, ctx: ModuleContext, node: ast.Call) -> Iterator[Violation]:
        name = ctx.resolve(node.func)
        if name not in ("heapq.heappush", "heapq.heappushpop", "heapq.heapreplace"):
            return
        if len(node.args) < 2 or not isinstance(node.args[1], ast.Tuple):
            return
        entry = node.args[1]
        if len(entry.elts) < 2:
            return
        if not _looks_time_like(entry.elts[0]):
            return
        if any(_carries_sequence(elt) for elt in entry.elts[1:]):
            return
        yield Violation(
            ctx.path,
            node.lineno,
            "SCHED003",
            "heap entry orders by time but has no sequence tie-breaker; "
            "equal-time entries compare on the payload",
            "insert a monotonically increasing counter between time and payload",
        )


def _is_zero_delay_schedule(node: ast.Call) -> bool:
    """``.timeout(0)``, ``schedule(..., 0)`` with no explicit priority, or
    ``.call_at(<...>.now_ticks, ...)`` / ``.timeout_at(<...>.now_ticks)``."""
    if not isinstance(node.func, ast.Attribute):
        return False
    attr = node.func.attr
    if attr in ("call_at", "timeout_at"):
        tick = node.args[0] if node.args else _keyword(node, "tick")
        return (isinstance(tick, ast.Attribute) and tick.attr == "now_ticks") or (
            isinstance(tick, ast.Name) and tick.id == "now_ticks"
        )
    if attr == "timeout":
        delay = node.args[0] if node.args else _keyword(node, "delay")
    elif attr == "schedule":
        if any(kw.arg == "priority" for kw in node.keywords):
            return False
        delay = node.args[1] if len(node.args) > 1 else _keyword(node, "delay")
    elif attr == "_schedule":
        return False  # signature carries an explicit priority argument
    else:
        return False
    return (
        delay is not None
        and isinstance(delay, ast.Constant)
        and isinstance(delay.value, (int, float))
        and not isinstance(delay.value, bool)
        and delay.value == 0
    )


def _keyword(node: ast.Call, name: str) -> Optional[ast.expr]:
    for kw in node.keywords:
        if kw.arg == name:
            return kw.value
    return None


def _inside_loop(func: ast.AST, target: ast.AST) -> bool:
    """True when ``target`` sits inside a for/while loop of ``func``."""
    found = [False]

    def visit(node: ast.AST, in_loop: bool) -> None:
        if node is target:
            found[0] = found[0] or in_loop
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and child is not func:
                continue
            visit(child, in_loop or isinstance(node, (ast.For, ast.AsyncFor, ast.While)))

    visit(func, False)
    return found[0]


def _looks_time_like(node: ast.expr) -> bool:
    for sub in ast.walk(node):
        spelling = ""
        if isinstance(sub, ast.Name):
            spelling = sub.id
        elif isinstance(sub, ast.Attribute):
            spelling = sub.attr
        if spelling and _TIME_LIKE.search(spelling.lower()):
            return True
    return False


def _carries_sequence(node: ast.expr) -> bool:
    for sub in ast.walk(node):
        spelling = ""
        if isinstance(sub, ast.Name):
            spelling = sub.id
        elif isinstance(sub, ast.Attribute):
            spelling = sub.attr
        if spelling and _SEQ_LIKE.search(spelling.strip("_").lower()):
            return True
    return False


__all__ = ["SchedulePass"]
