"""Benchmark the paper's three experiment families, end to end and per layer.

    python bench/run.py [--workloads NAME ...] [--seed S]
                        [--samples N | --seconds T] [--trace {0,1}] [--out FILE]

Each workload runs in fresh child processes, one at a time, with tracing
off (``bench/child.py``): a few set-up-only children, then N timed samples
(or samples until T seconds have passed).  Every output is checked against
the committed goldens.  One traced run per workload then gives the
per-layer metrics.  ``--trace 0`` skips the traced run; ``--trace 1`` makes
only the traced run and one timed sample (for ``trace.overhead``).

Prints a table per workload, then, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end medians
and per-layer values; names are prefixed with ``<workload>.`` when more
than one workload runs).  ``--out`` writes the full report, the input of
``bench/compare.py``.  Exits 1 when an output is wrong, 2 when the
benchmark cannot run here.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent

#: each selects a different program from the one the goldens and the
#: baseline describe
REFUSED_ENV = ("REPRO_FLUID", "REPRO_FULL")

#: set-up-only children per workload; with the timed samples' own set-ups
#: they give the median ``setup_s``
SETUP_RUNS = 7

CHILD_TIMEOUT_S = 170

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(p25, median, p75), as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    p25, median, p75 = statistics.quantiles(values, n=4)
    return p25, median, p75


def summarise(values: list[float], unit: str) -> dict:
    p25, median, p75 = quartiles(values)
    return {"unit": unit, "median": median, "p25": p25, "p75": p75, "n": len(values),
            "values": values}


def run_child(name: str, seed: int, mode: str) -> dict:
    """One ``bench/child.py`` process; its record, or ``{"error": ...}``."""
    cmd = [sys.executable, str(BENCH / "child.py"), name, str(seed), mode]
    try:
        proc = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        record = {"error": f"{mode} child exceeded {CHILD_TIMEOUT_S}s"}
    else:
        if proc.returncode == 0 and proc.stdout.strip():
            record = json.loads(proc.stdout.splitlines()[-1])
        else:
            record = {"error": proc.stderr[-4000:] or f"{mode} child exited {proc.returncode}"}
    if "error" in record:
        print(f"{name} {mode}: {record['error']}", file=sys.stderr)
    return record


class Checks:
    """Outputs attempted and failed against the goldens, across samples."""

    def __init__(self, workload: workloads.Workload):
        self.workload = workload
        self.attempted = self.failed = 0

    def add(self, record: dict, seed: int) -> None:
        for output, ok in self.workload.check(record.get("outputs"), seed).items():
            self.attempted += 1
            if not ok:
                self.failed += 1
                print(f"{self.workload.name}: {output} differs from its golden",
                      file=sys.stderr)


def measure(name: str, seed: int, samples: int, seconds: "float | None",
            trace: "int | None") -> dict:
    """Samples, traced run and golden checks of one workload.

    Sample k runs on input seed ``seed + k``, so a ray2mesh run rotates
    through the master sites from ``SITES[seed % 4]``: the sites' costs
    differ by up to 14 %, and a median over one site per run would move
    with the seed.  Timed by ``seconds``, a run takes whole rotations
    (``Workload.period`` samples), so every run weighs each site equally.
    The traced run uses ``seed`` itself.
    """
    workload = workloads.WORKLOADS[name]
    checks = Checks(workload)
    setups = []
    if trace == 1:
        samples, seconds = 1, None  # only for the wall time trace.overhead divides
    else:
        setups = [run_child(name, seed + k, "setup") for k in range(SETUP_RUNS)]

    timed: list[dict] = []
    start = time.perf_counter()
    while (len(timed) < samples if seconds is None
           else time.perf_counter() - start < seconds or len(timed) % workload.period):
        record = run_child(name, seed + len(timed), "timed")
        checks.add(record, seed + len(timed))
        timed.append(record)
    ok = [r for r in timed if "wall_s" in r]

    end_to_end = {}
    if trace != 1 and ok:
        for metric, unit in E2E_UNITS.items():
            source = setups + timed if metric == "setup_s" else ok
            end_to_end[metric] = summarise([r[metric] for r in source if metric in r], unit)

    per_layer = {}
    if trace != 0:
        record = run_child(name, seed, "traced")
        layers = record.get("layers", {})
        if not layers.get("sim.events"):
            # a run that simulated nothing (a warm memo) proves nothing
            record = dict(record, outputs=None)
        checks.add(record, seed)
        if layers and ok:
            layers["trace.overhead"] = layers["trace.wall_s"] / statistics.median(
                r["wall_s"] for r in ok)
        per_layer = {m: {"value": v, "unit": tracing.unit_of(m)} for m, v in layers.items()}

    return {
        "attempted": checks.attempted,
        "failed": checks.failed,
        "fail_frac": checks.failed / checks.attempted if checks.attempted else 1.0,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }


def host_info() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "system": platform.system(),
    }


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_report(name: str, seed: int, result: dict) -> None:
    print(f"== {name} (seed {seed}): {result['attempted'] - result['failed']}/"
          f"{result['attempted']} outputs match the goldens, "
          f"fail_frac {_fmt(result['fail_frac'])}")
    if result["end_to_end"]:
        print(f"{'metric':<24} {'unit':<10} {'median':>12} {'p25':>12} {'p75':>12} {'n':>3}")
        for metric, s in result["end_to_end"].items():
            print(f"{metric:<24} {s['unit']:<10} {_fmt(s['median']):>12} "
                  f"{_fmt(s['p25']):>12} {_fmt(s['p75']):>12} {s['n']:>3}")
    if result["per_layer"]:
        print("per layer (one traced run):")
        for metric, m in result["per_layer"].items():
            print(f"  {metric:<24} {m['unit']:<10} {_fmt(m['value']):>14}")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", "--workload", nargs="+", default=list(workloads.WORKLOADS),
                        choices=list(workloads.WORKLOADS), metavar="NAME")
    parser.add_argument("--seed", type=int, default=0,
                        help="ray2mesh master site is SITES[seed %% 4] (default 0)")
    count = parser.add_mutually_exclusive_group()
    count.add_argument("--samples", type=int, default=5, help="timed samples (default 5)")
    count.add_argument("--seconds", type=float,
                       help="take timed samples until this many seconds have passed")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end only; 1: per-layer only (default: both)")
    parser.add_argument("--out", type=Path, help="write the full JSON report here")
    args = parser.parse_args(argv)

    refused = [var for var in REFUSED_ENV if os.environ.get(var)]
    if refused:
        print(f"refusing to run with {', '.join(refused)} set", file=sys.stderr)
        return 2
    if not (REPO / "src" / "repro").is_dir() or not workloads.RESULTS.is_dir():
        print(f"no src/repro or results/ under {REPO}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(REPO / "src"))  # the goldens check renders through repro

    results = {}
    for name in args.workloads:
        results[name] = measure(name, args.seed, args.samples, args.seconds, args.trace)
        print_report(name, args.seed, results[name])

    if args.out:
        report = {"host": host_info(), "seed": args.seed, "samples": args.samples,
                  "seconds": args.seconds, "workloads": results}
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")

    metrics = {}
    for name, result in results.items():
        prefix = "" if len(results) == 1 else f"{name}."
        for metric, s in result["end_to_end"].items():
            metrics[prefix + metric] = {"value": s["median"], "unit": s["unit"]}
        for metric, m in result["per_layer"].items():
            metrics[prefix + metric] = m
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
