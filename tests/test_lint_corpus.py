"""Mutation corpus: one plausible bug per lint rule, and what catches it.

Each :class:`Bug` is a text substitution in ``src/repro``.  Its ``old``
text occurs exactly once in the module, and the substituted lines run in
the named fast experiment.  ``caught_by`` records every catcher that fires
on the mutated package:

* the lint rule ids that fire on the mutated module but not on the
  original one;
* ``"raise"``: the experiment raises;
* ``"golden"``: the experiment's rendered text differs from its committed
  ``results/fast/`` golden.

An empty ``caught_by`` is a documented gap: nothing catches that bug.

The corpus is the evidence for which lint families exist.  A family stays
only while some bug is caught by that family alone: no golden, no raise,
no other family.  The tests re-check every recorded catcher on a copy of
the package in a temporary directory; the working tree is never edited.
README.md ("Correctness tooling") renders the corpus as a table.
"""

from __future__ import annotations

import json
import os
import queue
import shutil
import subprocess
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.analysis.linter import RULE_CATALOG, lint_source

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "repro"
GOLDENS = REPO / "results" / "fast"

#: every pass rule gets at least one planted bug (NOQA001 is reported by
#: the linter itself, not by a pass)
PLANTED_RULES = (
    "DET001", "DET002", "DET003", "DET004", "DET005", "DET006",
    "UNIT001", "UNIT002", "UNIT003",
    "SIM001", "SIM002", "SIM003",
    "DIM001", "DIM002", "DIM003", "DIM004", "DIM005",
    "SCHED001", "SCHED002", "SCHED003",
)

#: catchers that are not lint rules
RUNTIME_CATCHERS = ("raise", "golden")

#: experiments run concurrently, each in its own package copy
WORKERS = 2


@dataclass(frozen=True)
class Bug:
    """One planted bug and the catchers that fire on it."""

    #: the rule the bug was planted for (it need not fire)
    rule: str
    #: module path under ``src/repro``
    path: str
    old: str
    new: str
    #: fast experiment that runs the substituted lines
    experiment: str
    caught_by: tuple[str, ...]
    #: one-line description, as in README.md's corpus table
    what: str

    @property
    def id(self) -> str:
        return f"{self.rule}-{Path(self.path).stem}"


CORPUS: tuple[Bug, ...] = (
    # -- DET: nondeterminism ----------------------------------------------
    Bug(
        "DET001",
        "tcp/connection.py",
        "            draws.append(self._loss_rng.random())",
        """            import random

            draws.append(random.random())""",
        "faults_pingpong",
        ("DET001", "golden"),
        "injected-loss draw taken from the stdlib `random` module",
    ),
    Bug(
        "DET002",
        "tcp/connection.py",
        "            self._activity[0] = env.now\n",
        "            import time\n\n            self._activity[0] = time.monotonic()\n",
        "fig9",
        ("DET002",),
        "last-activity stamp read from the wall clock: the idle restart never fires",
    ),
    Bug(
        "DET003",
        "experiments/faults.py",
        "    return FaultProfile(seed=FAULTS_SEED, loss_prob=loss_prob)",
        "    from datetime import date\n\n"
        "    return FaultProfile(seed=date.today().toordinal(), loss_prob=loss_prob)",
        "faults_pingpong",
        ("DET003", "golden"),
        "loss-profile seed taken from today's date",
    ),
    Bug(
        "DET004",
        "mpi/protocol.py",
        "        rndv_id = next(self._rndv_ids)",
        "        import uuid\n\n        rndv_id = uuid.uuid4().int",
        "fig7",
        ("DET004",),
        "rendezvous ids drawn from `uuid.uuid4()`",
    ),
    Bug(
        "DET005",
        "tcp/connection.py",
        """            self._loss_rng = (
                rngs.uniform(f"faults.loss.{name}") if profile.loss_prob > 0 else None
            )""",
        """            import numpy as np

            self._loss_rng = (
                np.random.default_rng(profile.seed) if profile.loss_prob > 0 else None
            )""",
        "faults_pingpong",
        ("DET005", "golden"),
        "loss stream built with `np.random.default_rng`, bypassing `RngRegistry`",
    ),
    Bug(
        "DET006",
        "mpi/runtime.py",
        """        procs = [
            env.process(wrapper(r), name=f"rank{r}") for r in range(self.nprocs)
        ]""",
        """        procs = []
        for node in set(self.placement):
            r = self.placement.index(node)
            procs.append(env.process(wrapper(r), name=f"rank{r}"))""",
        "table4",
        ("DET006",),
        "rank processes spawned in the id order of `set(placement)`",
    ),
    Bug(
        "DET006",
        "net/fluid.py",
        "        flows = sorted(scope, key=lambda f: f.uid)",
        "        flows = list(set(scope))",
        "coll_hier",
        (),
        "a fluid component's flows ordered by `list(set(...))` instead of by uid",
    ),
    # -- UNIT: bytes vs bits/s, float time equality ------------------------
    Bug(
        "UNIT001",
        "tcp/connection.py",
        "                flow = self.fluid.start_flow(self.name, self.route.pipes, wire)",
        "                flow = self.fluid.start_flow(\n"
        "                    self.name, self.route.pipes, wire, rate_cap_bps=1e9\n"
        "                )",
        "fig7",
        ("UNIT001",),
        "eager flows capped at a literal `1e9`, right only for 1 Gbps NICs",
    ),
    Bug(
        "UNIT002",
        "experiments/fig9.py",
        '    streams = {"TCP": tcp_stream(net, a, b, nbytes=MB, count=count, '
        "sysctls=env.sysctls)}",
        "    from repro.units import Mbps\n\n"
        '    streams = {"TCP": tcp_stream(net, a, b, nbytes=Mbps(8), count=count, '
        "sysctls=env.sysctls)}",
        "fig9",
        ("UNIT002", "golden"),
        "Fig. 9's 1 MB message written as `Mbps(8)`",
    ),
    Bug(
        "UNIT003",
        "mpi/protocol.py",
        """        delay = when - self.env.now
        if delay < 0:""",
        """        if when == self.env.now:
            fn()
            return
        delay = when - self.env.now
        if delay < 0:""",
        "fig7",
        ("UNIT003",),
        "deliveries run inline when `when == env.now` (float equality on time)",
    ),
    # -- SIM: engine contract ------------------------------------------------
    Bug(
        "SIM001",
        "mpi/protocol.py",
        """            if overhead > 0:
                yield self.env.timeout(overhead)""",
        """            if overhead > 0:
                return self.env.timeout(overhead)""",
        "fig7",
        ("SIM001", "raise"),
        "the rendezvous responder returns its overhead timeout: no ack is sent",
    ),
    Bug(
        "SIM002",
        "net/fluid.py",
        "            flow.done.succeed()\n            self._depart(flow)",
        "            flow.done.succeed()\n            flow.done.succeed()\n"
        "            self._depart(flow)",
        "table4",
        ("SIM002", "raise"),
        "a finished flow's `done` event succeeded twice",
    ),
    Bug(
        "SIM003",
        "mpi/protocol.py",
        "        self.env.call_at(self.env.now_ticks + delay_to_ticks(delay), fn)",
        """        def guarded():
            try:
                fn()
            except:  # noqa: E722
                pass

        self.env.call_at(self.env.now_ticks + delay_to_ticks(delay), guarded)""",
        "fig7",
        ("SIM003",),
        "delivery callbacks wrapped in a bare `except: pass` that hides their errors",
    ),
    # -- DIM: unit dimensions through dataflow -------------------------------
    Bug(
        "DIM001",
        "tcp/connection.py",
        "        bdp = route.bottleneck_bps * self.rtt / 8.0",
        "        bdp = route.bottleneck_bps * self.rtt",
        "fig7",
        ("DIM001",),
        "path BDP (§4.2.1's 1.45 MB) left in bits: the overflow threshold is 8x high",
    ),
    Bug(
        "DIM002",
        "experiments/table4.py",
        "            latencies[(curve.label, where)] = "
        "to_usec(curve.points[0].one_way_latency)",
        "            from repro.units import usec\n\n"
        "            latencies[(curve.label, where)] = "
        "to_usec(curve.points[0].one_way_latency) - usec(12)",
        "table4",
        ("DIM002",),
        "Table 4 subtracts the stack crossing as `usec(12)` from a value in µs",
    ),
    Bug(
        "DIM002",
        "tcp/connection.py",
        "TCP_STACK_ONEWAY = usec(12)",
        "TCP_STACK_ONEWAY = 12",
        "fig7",
        ("golden",),
        "the 12 µs stack crossing written as a raw `12` (seconds)",
    ),
    Bug(
        "DIM003",
        "net/fluid.py",
        "                rb = flow.remaining_bits - flow.rate_bps * elapsed\n",
        "                rb = flow.remaining_bits - flow.rate_bps * elapsed / 8.0\n",
        "fig7",
        ("DIM003", "golden"),
        "the fluid solver subtracts bytes sent from a count of bits",
    ),
    Bug(
        "DIM003",
        "tcp/connection.py",
        "                sent_cap = window * 8.0 / self.rtt",
        "                sent_cap = window / self.rtt",
        "fig9",
        ("golden",),
        "the pushed-cap tracker `sent_cap` kept in bytes/s (dropped `* 8.0`)",
    ),
    Bug(
        "DIM004",
        "tcp/connection.py",
        """            raise TcpError(f"cannot transmit {nbytes} bytes")
        t_post = self.env.now""",
        """            raise TcpError(f"cannot transmit {nbytes} bytes")
        if nbytes == 0:
            return nbytes
        t_post = self.env.now""",
        "fig7",
        ("DIM004",),
        "a zero-byte transmit returns its byte count as the arrival time",
    ),
    Bug(
        "DIM005",
        "apps/pingpong.py",
        """        yield from conn.connect()
        for nbytes in sizes:""",
        """        yield from conn.connect()
        yield env.timeout(-1e-6)
        for nbytes in sizes:""",
        "table4",
        ("DIM005", "raise"),
        "the TCP pingpong rewinds 1 µs with a literal negative delay",
    ),
    # -- SCHED: same-timestamp tie-breaking ------------------------------------
    Bug(
        "SCHED001",
        "mpi/protocol.py",
        "        self.env.call_at(self.env.now_ticks + delay_to_ticks(delay), fn)",
        """        env = self.env
        env.call_at(
            env.now_ticks + delay_to_ticks(delay),
            lambda: env.call_at(env.now_ticks, lambda: env.call_at(env.now_ticks, fn)),
        )""",
        "fig7",
        ("SCHED001",),
        "deliveries deferred by two zero-delay hops so same-instant receives post first",
    ),
    Bug(
        "SCHED002",
        "mpi/runtime.py",
        """        procs = [
            env.process(wrapper(r), name=f"rank{r}") for r in range(self.nprocs)
        ]""",
        """        procs = []
        nodes = set(self.placement)
        for node in nodes:
            r = self.placement.index(node)
            procs.append(env.process(wrapper(r), name=f"rank{r}"))""",
        "table4",
        ("SCHED002",),
        "rank processes spawned by iterating a set-typed variable",
    ),
    Bug(
        "SCHED003",
        "sim/core.py",
        "        heapq.heappush(self._queue, (tick, priority, seq, event))",
        "        heapq.heappush(self._queue, (tick, priority, event))",
        "table4",
        ("raise",),
        "engine heap entries lose their sequence number, so ties compare events",
    ),
)


def family(rule: str) -> str:
    return rule.rstrip("0123456789")


def mutate(source: str, bug: Bug) -> tuple[str, int, int]:
    """The mutated source and the 1-based line span of the new text."""
    start = source.index(bug.old)
    first = source.count("\n", 0, start) + 1
    last = first + bug.new.rstrip("\n").count("\n")
    return source.replace(bug.old, bug.new, 1), first, last


def lint_catchers(source: str, mutated: str, path: str) -> set[str]:
    """Rules that fire more often on the mutated module than on the original."""

    def rules(text: str) -> Counter:
        return Counter(v.rule for v in lint_source(text, path=path))

    return set(rules(mutated) - rules(source))


#: Runs one fast experiment in a fresh interpreter and reports, as JSON on
#: the last stdout line, the rendered text (or the exception) and whether
#: any line of ``path`` in ``first..last`` executed.
_RUN_EXPERIMENT = """
import json, sys
path, first, last, experiment = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
ran = []

def watch(frame, event, arg):
    if event == "line" and first <= frame.f_lineno <= last:
        ran.append(frame.f_lineno)
        sys.settrace(None)
        return None
    return watch

def on_call(frame, event, arg):
    return watch if frame.f_code.co_filename == path else None

sys.settrace(on_call)
try:
    from repro.experiments import run_experiment
    text, error = run_experiment(experiment, fast=True).text, None
except Exception as exc:
    text, error = None, f"{type(exc).__name__}: {exc}"
sys.settrace(None)
import repro
print(json.dumps({"ran": bool(ran), "text": text, "error": error, "package": repro.__file__}))
"""


def golden_text(experiment: str) -> str:
    """A committed golden without its wall-time footer."""
    return (GOLDENS / f"{experiment}.txt").read_text().rsplit("\n\n[", 1)[0]


def runtime_catchers(root: Path, bug: Bug) -> tuple[set[str], bool]:
    """Run the bug's experiment on the package copy under ``root`` with the
    bug planted; return the runtime catchers that fire and whether the
    substituted lines ran."""
    target = root / "repro" / bug.path
    original = target.read_text()
    mutated, first, last = mutate(original, bug)
    target.write_text(mutated)
    try:
        proc = subprocess.run(
            [sys.executable, "-B", "-c", _RUN_EXPERIMENT, str(target),
             str(first), str(last), bug.experiment],
            cwd=root,
            env={**os.environ, "PYTHONPATH": str(root)},
            capture_output=True,
            text=True,
            timeout=300,
        )
    finally:
        target.write_text(original)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert Path(report["package"]).is_relative_to(root)
    if report["error"] is not None:
        return {"raise"}, report["ran"]
    if report["text"] != golden_text(bug.experiment):
        return {"golden"}, report["ran"]
    return set(), report["ran"]


@pytest.fixture(scope="module")
def runtime_outcomes(tmp_path_factory) -> "dict[str, tuple[set[str], bool] | None]":
    """``runtime_catchers`` of every bug (``None`` if it cannot be planted),
    run by two workers that each own a throwaway copy of ``src/repro`` (no
    bytecode) to plant bugs in."""
    copies: queue.Queue[Path] = queue.Queue()
    for _ in range(WORKERS):
        root = tmp_path_factory.mktemp("corpus")
        shutil.copytree(PACKAGE, root / "repro", ignore=shutil.ignore_patterns("__pycache__"))
        copies.put(root)

    def check(bug: Bug) -> "tuple[set[str], bool] | None":
        if (PACKAGE / bug.path).read_text().count(bug.old) != 1:
            return None  # reported by test_substitution_matches_exactly_once
        root = copies.get()
        try:
            return runtime_catchers(root, bug)
        finally:
            copies.put(root)

    with ThreadPoolExecutor(WORKERS) as pool:
        return dict(zip((bug.id for bug in CORPUS), pool.map(check, CORPUS)))


def test_corpus_plants_a_bug_for_every_pass_rule():
    assert {bug.rule for bug in CORPUS} == set(PLANTED_RULES)
    # a new rule needs its own entry before it can join the catalog
    assert set(RULE_CATALOG) - {"NOQA001"} <= set(PLANTED_RULES)
    assert len({bug.id for bug in CORPUS}) == len(CORPUS)


@pytest.mark.parametrize("bug", CORPUS, ids=lambda bug: bug.id)
def test_substitution_matches_exactly_once(bug):
    source = (PACKAGE / bug.path).read_text()
    assert source.count(bug.old) == 1, f"{bug.path}: the planted text moved or repeats"
    compile(mutate(source, bug)[0], bug.path, "exec")


def test_every_lint_family_catches_a_bug_alone():
    """A family stays in the catalog only while some bug is caught by
    that family and by nothing else."""
    sole: set[str] = set()
    for bug in CORPUS:
        families = {family(catcher) for catcher in bug.caught_by}
        if len(families) == 1 and not families & set(RUNTIME_CATCHERS):
            sole |= families
    kept = {family(rule) for rule in RULE_CATALOG} & {family(r) for r in PLANTED_RULES}
    assert sole == kept


@pytest.mark.parametrize("bug", CORPUS, ids=lambda bug: bug.id)
def test_recorded_catchers_fire(bug, runtime_outcomes):
    outcome = runtime_outcomes[bug.id]
    assert outcome is not None, f"{bug.path}: the planted text moved or repeats"
    caught, ran = outcome
    assert ran, f"{bug.experiment} never runs the planted lines of {bug.path}"
    source = (PACKAGE / bug.path).read_text()
    caught = caught | lint_catchers(source, mutate(source, bug)[0], bug.path)
    assert sorted(caught) == sorted(bug.caught_by)
