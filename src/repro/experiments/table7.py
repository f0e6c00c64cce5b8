"""Table 7 — ray2mesh phase times vs master placement."""

from __future__ import annotations

from repro.experiments.base import ExperimentResult, ShardSpec
from repro.experiments.table6 import SITES, ray2mesh_shards, site_runs
from repro.report import Table

#: paper's Table 7 (seconds): comp / merge / total per master site
PAPER = {
    "nancy": (185.11, 168.85, 361.52),
    "rennes": (185.16, 162.59, 355.14),
    "sophia": (186.03, 168.38, 361.72),
    "toulouse": (186.97, 165.99, 360.24),
}


def merge(payloads: dict[str, dict], fast: bool = False) -> ExperimentResult:
    runs = site_runs(payloads)
    table = Table(
        ["master", "comp (s)", "merge (s)", "total (s)", "paper comp/merge/total"],
        title="Table 7: ray2mesh phase times vs master location",
    )
    rows = []
    for site in SITES:
        r = runs[site]
        p = PAPER[site]
        table.add_row(
            [site, r["comp_time"], r["merge_time"], r["total_time"],
             f"{p[0]:.0f} / {p[1]:.0f} / {p[2]:.0f}"]
        )
        rows.append(
            {
                "master": site,
                "comp_s": r["comp_time"],
                "merge_s": r["merge_time"],
                "total_s": r["total_time"],
                "paper": p,
            }
        )
    totals = [r["total_time"] for r in runs.values()]
    spread = max(totals) / min(totals)
    note = (
        f"total-time spread across master placements: {spread:.3f}x "
        "(paper: placement does not matter — spread 1.02x)"
    )
    return ExperimentResult(
        "table7",
        "Table 7: ray2mesh time results",
        "Table 7, §4.4",
        rows,
        "\n".join([table.render(), note]),
    )


def shards(fast: bool = False) -> list[ShardSpec]:
    # Identical task_ids to table6's shards: the runner executes the four
    # ray2mesh runs once and feeds both tables.
    return ray2mesh_shards()
