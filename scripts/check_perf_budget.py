#!/usr/bin/env python3
"""CI perf-regression gate: fresh campaign walls vs committed budgets.

Compares each experiment's ``wall_s`` in the most recent
``BENCH_experiments.json`` entry against the committed per-experiment
budget file (``scripts/budgets.json``), prints a before/after table,
and exits non-zero when any experiment regresses past its budget.

The budget check is deliberately generous — runner noise on shared CI
hardware is real — but bounded: a fresh wall fails when

    wall_s > budget * (1 + slack) + grace_s

where ``slack`` (default 0.5, i.e. +-50%) and ``grace_s`` (default 2 s,
absorbing interpreter startup jitter on near-zero entries like table1)
come from the budget file.  Experiments present in the manifest but
missing from the budget file fail too, so new experiments must be
budgeted the same way they must have goldens.

Budgets were seeded from the post-rewrite fast campaign; the point of
the gate is that the incremental-allocator speedup (table6: 5x) can
never silently erode.  Re-seed ``scripts/budgets.json`` deliberately
when a slowdown is intentional, and say why in the commit.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DEFAULT_MANIFEST = REPO / "BENCH_experiments.json"
DEFAULT_BUDGETS = REPO / "scripts" / "budgets.json"


def load_latest_entry(manifest_path: Path) -> dict:
    """The most recent campaign entry (CI runs this right after `repro run`)."""
    document = json.loads(manifest_path.read_text(encoding="utf-8"))
    runs = document.get("runs") or []
    if not runs:
        raise SystemExit(f"perf gate: no campaign entries in {manifest_path}")
    return runs[-1]


def evaluate(entry: dict, budgets: dict, slack: float, grace_s: float) -> list[dict]:
    """One row per experiment: budget, fresh wall, limit, verdict."""
    experiments = entry.get("experiments", {})
    rows = []
    for experiment_id in sorted(set(budgets) | set(experiments)):
        budget = budgets.get(experiment_id)
        record = experiments.get(experiment_id)
        row = {
            "experiment": experiment_id,
            "budget_s": budget,
            "wall_s": record.get("wall_s") if record else None,
            "limit_s": None,
            "status": "ok",
        }
        if budget is None:
            # Unbudgeted experiments fail: budgets stay in sync with the
            # registry the same way committed goldens do.
            row["status"] = "FAIL (no budget: add to scripts/budgets.json)"
        elif record is None:
            row["status"] = "FAIL (missing from campaign manifest)"
        else:
            limit = budget * (1.0 + slack) + grace_s
            row["limit_s"] = limit
            if row["wall_s"] > limit:
                row["status"] = (
                    f"FAIL (regressed {row['wall_s'] / budget:.2f}x over budget)"
                )
        rows.append(row)
    return rows


def render(rows: list[dict], entry: dict, slack: float, grace_s: float) -> str:
    def fmt(value: "float | None") -> str:
        return f"{'-':>9}" if value is None else f"{value:9.3f}"

    lines = [
        f"perf gate: campaign label={entry.get('label', '')!r} "
        f"jobs={entry.get('jobs')} telemetry={entry.get('telemetry')} "
        f"(limit = budget * {1 + slack:.2f} + {grace_s:.1f}s)",
        f"{'experiment':<16} {'budget_s':>9} {'wall_s':>9} {'limit_s':>9}  status",
    ]
    for row in rows:
        lines.append(
            f"{row['experiment']:<16} {fmt(row['budget_s'])} "
            f"{fmt(row['wall_s'])} {fmt(row['limit_s'])}  {row['status']}"
        )
    failures = [row for row in rows if row["status"] != "ok"]
    lines.append(
        "PERF OK: every experiment within budget"
        if not failures
        else "PERF REGRESSION: "
        + ", ".join(row["experiment"] for row in failures)
    )
    return "\n".join(lines)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--manifest", type=Path, default=DEFAULT_MANIFEST)
    parser.add_argument("--budgets", type=Path, default=DEFAULT_BUDGETS)
    parser.add_argument(
        "--slack", type=float, default=None,
        help="relative slack override (default: budget file's, 0.5)",
    )
    parser.add_argument(
        "--grace-s", type=float, default=None,
        help="absolute grace override in seconds (default: budget file's, 2.0)",
    )
    args = parser.parse_args(argv)

    budget_doc = json.loads(args.budgets.read_text(encoding="utf-8"))
    slack = args.slack if args.slack is not None else float(budget_doc.get("slack", 0.5))
    grace_s = (
        args.grace_s if args.grace_s is not None else float(budget_doc.get("grace_s", 2.0))
    )
    entry = load_latest_entry(args.manifest)
    rows = evaluate(entry, budget_doc.get("budgets", {}), slack, grace_s)
    print(render(rows, entry, slack, grace_s))
    return 1 if any(row["status"] != "ok" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
