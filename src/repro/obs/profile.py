"""``repro profile``: cProfile hotspot table for one experiment.

A thin wrapper over the standard profiler so "why is table7 slow" has a
one-command answer.  Wall-clock profiling is inherently nondeterministic;
this is a development tool, never part of an experiment's artifact (the
determinism contracts of ``results/`` are untouched).  With ``--record``
the top rows also land in ``BENCH_experiments.json`` (see
:func:`repro.runner.manifest.record_profile`) so hotspot drift is
reviewable next to campaign walls.
"""

from __future__ import annotations

import cProfile
import io
import pstats
import time
from dataclasses import dataclass, field
from typing import Any


@dataclass
class ProfileReport:
    """One profiled experiment: rendered table + structured top rows."""

    experiment_id: str
    fast: bool
    title: str
    wall_s: float
    #: rendered pstats table (header + ``print_stats`` output)
    text: str
    #: structured top-N rows by cumulative time, for the manifest
    rows: list[dict[str, Any]] = field(default_factory=list)


def _hotspot_rows(stats: pstats.Stats, top: int) -> list[dict[str, Any]]:
    """Top ``top`` functions by cumulative time as JSON-friendly rows."""
    entries = []
    for (filename, lineno, funcname), row in stats.stats.items():  # type: ignore[attr-defined]
        calls_total, calls_primitive, total_time, cumulative_time, _callers = row
        entries.append(
            {
                "function": funcname,
                "where": f"{filename}:{lineno}",
                "ncalls": int(calls_total),
                "primitive_calls": int(calls_primitive),
                "tottime_s": round(float(total_time), 4),
                "cumtime_s": round(float(cumulative_time), 4),
            }
        )
    entries.sort(key=lambda entry: (-entry["cumtime_s"], entry["where"]))
    return entries[: max(0, top)]


def profile_report(
    experiment_id: str, fast: bool = True, top: int = 25
) -> ProfileReport:
    """Run ``experiment_id`` under cProfile; table and structured rows."""
    from repro.experiments import run_experiment

    profiler = cProfile.Profile()
    # Host-side wall clock: profiling output is a development artifact and
    # never feeds a simulation result.
    start = time.perf_counter()  # repro: noqa=DET002
    profiler.enable()
    try:
        result = run_experiment(experiment_id, fast=fast)
    finally:
        profiler.disable()
    wall_s = time.perf_counter() - start  # repro: noqa=DET002

    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.strip_dirs().sort_stats("cumulative").print_stats(top)
    header = (
        f"profile: {experiment_id} (fast={fast}) — {result.title}\n"
        f"top {top} functions by cumulative time\n"
    )
    return ProfileReport(
        experiment_id=experiment_id,
        fast=fast,
        title=result.title,
        wall_s=wall_s,
        text=header + stream.getvalue(),
        rows=_hotspot_rows(stats, top),
    )
