"""DET rules: sources of run-to-run nondeterminism.

The simulator's results are only meaningful if two runs with the same seed
produce bit-identical event schedules (see ``sim/core.py``).  Anything that
reads wall-clock time, OS entropy, or an unseeded/unregistered RNG breaks
that contract silently; so does iterating a ``set`` while scheduling events,
because set order depends on object ids.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.passes.base import LintPass, ModuleContext, Violation

#: wall-clock reads (virtual time lives on ``env.now``)
_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.process_time_ns",
}

#: calendar-time reads
_CALENDAR = {
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
    "datetime.now",
    "datetime.utcnow",
    "date.today",
}

#: OS entropy sources
_ENTROPY = {"os.urandom", "os.getrandom", "uuid.uuid1", "uuid.uuid4"}

#: numpy RNG constructors / global-state mutation that bypass RngRegistry
_NUMPY_RNG = {
    "numpy.random.default_rng",
    "numpy.random.RandomState",
    "numpy.random.Generator",
    "numpy.random.seed",
    "numpy.random.PCG64",
    "numpy.random.Philox",
    "numpy.random.SFC64",
    "numpy.random.MT19937",
}

#: method names whose invocation inside a loop body means the loop is
#: feeding the event queue
_SCHEDULING_ATTRS = {
    "timeout", "timeout_at", "call_at", "process", "succeed", "fail", "_schedule",
}


class DeterminismPass(LintPass):
    rules = {
        "DET001": "call into the stdlib `random` module (unseeded global state)",
        "DET002": "wall-clock read (time.time/perf_counter/monotonic) in simulation code",
        "DET003": "calendar-time read (datetime.now/date.today) in simulation code",
        "DET004": "OS entropy source (os.urandom, uuid.uuid4, secrets.*)",
        "DET005": "numpy RNG constructed outside sim/rng.py (bypasses RngRegistry)",
        "DET006": "iteration over a set while scheduling events (order is id-dependent)",
    }

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(ctx, node)
            elif isinstance(node, ast.For):
                yield from self._check_loop(ctx, node)

    # -- calls ---------------------------------------------------------------
    def _check_call(self, ctx: ModuleContext, node: ast.Call) -> Iterator[Violation]:
        name = ctx.resolve(node.func)
        if not name:
            return
        if name.startswith("random.") or name == "random.random":
            yield Violation(
                ctx.path,
                node.lineno,
                "DET001",
                f"`{name}()` draws from the process-global RNG",
                "draw from a named RngRegistry stream instead",
            )
        elif name in _WALL_CLOCK:
            yield Violation(
                ctx.path,
                node.lineno,
                "DET002",
                f"`{name}()` reads the wall clock",
                "simulation time is `env.now` / `ctx.wtime()`",
            )
        elif name in _CALENDAR:
            yield Violation(
                ctx.path,
                node.lineno,
                "DET003",
                f"`{name}()` reads calendar time",
                "pass timestamps in explicitly if one is needed",
            )
        elif name in _ENTROPY or name.startswith("secrets."):
            yield Violation(
                ctx.path,
                node.lineno,
                "DET004",
                f"`{name}()` reads OS entropy",
                "derive ids/keys from the experiment seed",
            )
        elif name in _NUMPY_RNG or name.startswith("numpy.random."):
            yield Violation(
                ctx.path,
                node.lineno,
                "DET005",
                f"`{name}(...)` constructs an RNG outside RngRegistry",
                "use RngRegistry(seed).stream(name) so streams stay named and stable",
            )

    # -- set iteration feeding the scheduler ----------------------------------
    def _check_loop(self, ctx: ModuleContext, node: ast.For) -> Iterator[Violation]:
        if not _is_set_expression(ctx, node.iter):
            return
        if not _body_schedules(node):
            return
        yield Violation(
            ctx.path,
            node.lineno,
            "DET006",
            "loop over a set schedules events; set order depends on object ids",
            "iterate a sorted() view or a list kept in insertion order",
        )


def _is_set_expression(ctx: ModuleContext, node: ast.expr) -> bool:
    """Syntactically a set: a literal, a comprehension, or set()/frozenset()."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return ctx.resolve(node.func) in ("set", "frozenset")
    return False


def _body_schedules(loop: ast.For) -> bool:
    for stmt in loop.body:
        for node in ast.walk(stmt):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _SCHEDULING_ATTRS
            ):
                return True
    return False
