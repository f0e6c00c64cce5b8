#!/usr/bin/env python3
"""CI incremental-invalidation gate: a warm re-run must actually be warm.

CI runs the fast campaign cold, appends a trailing comment to a leaf
module (``src/repro/obs/report.py`` — imported by no shard), re-runs
the campaign with the cache on, and then runs this script against the
most recent ``BENCH_experiments.json`` entry.  Dependency-aware cache
keys mean the edit must invalidate nothing: the gate fails when fewer
than ``min_cached_fraction`` of the experiments had every shard of the
experiment hit, or when the warm campaign's wall exceeds ``max_wall_s``
(both from the ``warm_rerun`` block of ``benchmarks/budgets.json``).

This is the regression guard for the whole incremental-campaign engine:
if cache keys ever degrade back to whole-tree digests, the leaf edit
chills everything and the cached fraction collapses to zero.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DEFAULT_MANIFEST = REPO / "BENCH_experiments.json"
DEFAULT_BUDGETS = REPO / "benchmarks" / "budgets.json"


def load_latest_entry(manifest_path: Path) -> dict:
    document = json.loads(manifest_path.read_text(encoding="utf-8"))
    runs = document.get("runs") or []
    if not runs:
        raise SystemExit(f"warm-rerun gate: no campaign entries in {manifest_path}")
    return runs[-1]


def evaluate(entry: dict, budget: dict) -> tuple[list[str], str]:
    """(failure reasons, summary line) for the warm campaign entry."""
    experiments = entry.get("experiments", {})
    if not experiments:
        return (["campaign entry has no experiments"], "no experiments")
    cached = [
        experiment_id
        for experiment_id, record in experiments.items()
        if record.get("cached")
    ]
    fraction = len(cached) / len(experiments)
    wall_s = float(entry.get("wall_s", 0.0))
    min_fraction = float(budget.get("min_cached_fraction", 0.8))
    max_wall_s = float(budget.get("max_wall_s", 60.0))

    failures = []
    if fraction < min_fraction:
        cold = sorted(set(experiments) - set(cached))
        failures.append(
            f"only {len(cached)}/{len(experiments)} experiments cached "
            f"({fraction:.0%} < {min_fraction:.0%}); cold: {', '.join(cold)}"
        )
    if wall_s > max_wall_s:
        failures.append(f"warm wall {wall_s:.1f}s > budget {max_wall_s:.1f}s")
    summary = (
        f"warm re-run: {len(cached)}/{len(experiments)} cached "
        f"({fraction:.0%}, floor {min_fraction:.0%}), wall {wall_s:.1f}s "
        f"(budget {max_wall_s:.1f}s)"
    )
    return failures, summary


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--manifest", type=Path, default=DEFAULT_MANIFEST)
    parser.add_argument("--budgets", type=Path, default=DEFAULT_BUDGETS)
    args = parser.parse_args(argv)

    budget_doc = json.loads(args.budgets.read_text(encoding="utf-8"))
    budget = budget_doc.get("warm_rerun", {})
    entry = load_latest_entry(args.manifest)
    failures, summary = evaluate(entry, budget)
    print(summary)
    for failure in failures:
        print(f"WARM-RERUN FAIL: {failure}")
    if not failures:
        print("WARM-RERUN OK: leaf edit invalidated nothing")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
