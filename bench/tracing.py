"""The traced run: per-layer counts and self time, measured from outside.

Nothing in ``src/`` is instrumented for the benchmark.  Counts come from
three outside views of one run:

* the engine's public trace-sink hook (``repro.sim.core.install_trace_sink``),
  which sees every popped event, counted by its class;
* ``cProfile`` call counts of a few named functions; a generator's count
  is its number of resumes;
* the public ``recomputations``/``solve_rounds`` attributes of every
  ``FluidNetwork``, whose instances a wrapper around ``__init__`` collects.

``repro.obs`` counters are not used: the MPICH-Madeleine known-failure probe
runs in a nested telemetry session, so they miss part of the work.

Self time is cProfile ``tottime`` summed per layer, a layer being a package
under ``src/repro/`` (see ``PACKAGE_LAYERS``); everything else (stdlib,
builtins, ``units.py``, the other packages) is ``other``.  The harness's own
functions are left out.
"""

from __future__ import annotations

import cProfile
import importlib
import pstats
import re
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

BENCH = Path(__file__).resolve().parent

LAYERS = ("sim", "net", "tcp", "mpi", "apps", "other")

#: package under ``src/repro/`` -> layer.  The NAS kernels join the paper's
#: applications in ``apps``, the layer above MPI, so that every workload
#: spends time in every layer and no self time reads a constant 0.
PACKAGE_LAYERS = {"sim": "sim", "net": "net", "tcp": "tcp", "mpi": "mpi",
                  "apps": "apps", "npb": "apps"}

_LAYER_PATH = re.compile(r"[/\\]src[/\\]repro[/\\](\w+)[/\\]")

#: metric -> function whose cProfile call count it is
CALL_COUNTS = {
    "sim.resumes": "repro.sim.core:Process._resume",
    "net.flows": "repro.net.fluid:FluidNetwork.start_flow",
    "net.cap_pushes": "repro.net.fluid:FluidNetwork.set_rate_cap",
    "tcp.wakeups": "repro.tcp.connection:_Direction.transmit",
    "tcp.window_rounds": "repro.tcp.connection:_Direction._on_window_round",
    "tcp.losses": "repro.tcp.congestion:CongestionState.on_loss",
    "mpi.messages": "repro.mpi.matching:Mailbox.deliver",
}

#: metric -> engine event class whose pops it counts
EVENT_COUNTS = {
    "sim.timeouts": "repro.sim.core:Timeout",
    "sim.bare_events": "repro.sim.core:Event",
    "sim.spawns": "repro.sim.core:Initialize",
    "sim.resource_grants": "repro.sim.queues:ResourceRequest",
}


def is_exact(metric: str) -> bool:
    """Counts and their ratios repeat bit for bit; times do not."""
    return not (metric.startswith("trace.") or ".self_" in metric)


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_frac"):
        return "fraction"
    if metric == "trace.overhead":
        return "x"
    per = metric.rpartition("_per_")[2]
    return "count" if per == metric else f"count/{per}"


def layer_of(filename: str) -> "str | None":
    """Layer of a pstats filename; ``None`` for the harness's own files."""
    if Path(filename).parent == BENCH:
        return None
    match = _LAYER_PATH.search(filename)
    return PACKAGE_LAYERS.get(match.group(1), "other") if match else "other"


def _resolve(ref: str) -> Any:
    module, _, qualname = ref.partition(":")
    obj = importlib.import_module(module)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def _profile_key(ref: str) -> tuple[str, int, str]:
    code = _resolve(ref).__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def layer_self_times(stats: dict) -> dict[str, float]:
    """cProfile ``tottime`` per layer from a ``pstats.Stats.stats`` table."""
    self_s = dict.fromkeys(LAYERS, 0.0)
    for (filename, _line, _name), (_cc, _nc, tottime, _ct, _callers) in stats.items():
        layer = layer_of(filename)
        if layer is not None:
            self_s[layer] += tottime
    return self_s


def traced(fn: Callable[[], Any]) -> tuple[Any, dict[str, float]]:
    """Run ``fn`` under the trace sink and cProfile; return its result and
    the per-layer metrics (``trace.overhead`` excepted: it needs an
    untraced wall time)."""
    from repro.net.fluid import FluidNetwork
    from repro.sim.core import install_trace_sink, remove_trace_sink

    pops: defaultdict[type, int] = defaultdict(int)

    def sink(tick: int, priority: int, seq: int, event: Any) -> None:
        pops[type(event)] += 1

    networks: list = []
    init = FluidNetwork.__init__

    def capture_init(self: Any, *args: Any, **kwargs: Any) -> None:
        init(self, *args, **kwargs)
        networks.append(self)

    FluidNetwork.__init__ = capture_init
    install_trace_sink(sink)
    profile = cProfile.Profile()
    start = time.perf_counter()
    try:
        profile.enable()
        try:
            result = fn()
        finally:
            profile.disable()
    finally:
        wall_s = time.perf_counter() - start
        remove_trace_sink(sink)
        FluidNetwork.__init__ = init

    stats = pstats.Stats(profile).stats
    metrics: dict[str, float] = {}
    metrics["sim.events"] = sum(pops.values())
    for name, ref in EVENT_COUNTS.items():
        metrics[name] = pops.get(_resolve(ref), 0)
    for name, ref in CALL_COUNTS.items():
        entry = stats.get(_profile_key(ref))
        metrics[name] = entry[1] if entry else 0
    metrics["net.recomputations"] = sum(n.recomputations for n in networks)
    metrics["net.solve_rounds"] = sum(n.solve_rounds for n in networks)

    messages = metrics["mpi.messages"]
    flows = metrics["net.flows"]
    wakeups = metrics["tcp.wakeups"]
    metrics["sim.events_per_msg"] = metrics["sim.events"] / messages if messages else 0.0
    metrics["sim.spawns_per_msg"] = metrics["sim.spawns"] / messages if messages else 0.0
    metrics["net.recomputes_per_flow"] = metrics["net.recomputations"] / flows if flows else 0.0
    metrics["tcp.wakeups_per_flow"] = wakeups / flows if flows else 0.0
    metrics["tcp.useful_wakeup_frac"] = metrics["tcp.window_rounds"] / wakeups if wakeups else 0.0

    self_s = layer_self_times(stats)
    total = sum(self_s.values())
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer]
        metrics[f"{layer}.self_frac"] = self_s[layer] / total if total else 0.0
    metrics["trace.wall_s"] = wall_s
    return result, metrics
