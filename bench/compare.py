"""Compare two ``bench/run.py --out`` reports against BENCHMARK.json's bounds.

    python bench/compare.py A.json B.json

One row per workload and end-to-end metric: both medians with their
quartiles, the change from A to B and a verdict against the metric's bound
(``fail_frac`` has bound 0).  Then every exact per-layer count of A is
diffed with B's; any difference means the simulated program changed.
Exits 1 on a regression, a count mismatch or a workload missing from B.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from tracing import is_exact

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def verdict(a: float, b: float, better: str, bound: float) -> str:
    """``REGRESSION`` when B is worse than A by more than ``bound`` (a share
    of A), ``improved`` when better by more, ``ok`` otherwise."""
    worse = (b - a) / a if better == "lower" else (a - b) / a
    if worse > bound:
        return "REGRESSION"
    if worse < -bound:
        return "improved"
    return "ok"


def _cell(s: dict) -> str:
    return f"{s['median']:.4g} [{s['p25']:.4g}, {s['p75']:.4g}]"


def compare(a: dict, b: dict, end_to_end: list[dict]) -> tuple[list[str], bool]:
    """Report lines, and whether B regressed or changed the program."""
    lines = [f"{'workload':<11} {'metric':<12} {'A median [p25, p75]':<28} "
             f"{'B median [p25, p75]':<28} {'delta':>8}  verdict"]
    bad = False
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            lines.append(f"{name:<11} missing from B")
            bad = True
            continue
        for metric in end_to_end:
            sa, sb = wa["end_to_end"].get(metric["name"]), wb["end_to_end"].get(metric["name"])
            if sa is None or sb is None:
                continue
            v = verdict(sa["median"], sb["median"], metric["better"], metric["bound"])
            bad |= v == "REGRESSION"
            delta = (sb["median"] - sa["median"]) / sa["median"]
            lines.append(f"{name:<11} {metric['name']:<12} {_cell(sa):<28} {_cell(sb):<28} "
                         f"{delta:>+8.1%}  {v} (bound {metric['bound']:.0%})")
        fail = "REGRESSION" if wb["fail_frac"] > wa["fail_frac"] else "ok"
        bad |= fail == "REGRESSION"
        lines.append(f"{name:<11} {'fail_frac':<12} {wa['fail_frac']:<28.4g} "
                     f"{wb['fail_frac']:<28.4g} {'':>8}  {fail} (bound 0)")
        for metric, ma in wa["per_layer"].items():
            mb = wb["per_layer"].get(metric)
            if is_exact(metric) and (mb is None or mb["value"] != ma["value"]):
                got = "missing" if mb is None else mb["value"]
                lines.append(f"{name:<11} {metric}: {ma['value']} -> {got}: program changed")
                bad = True
    return lines, bad


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    lines, bad = compare(a, b, json.loads(BENCHMARK.read_text())["end_to_end"])
    print("\n".join(lines))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
