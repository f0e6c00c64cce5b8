"""Figure 10 — NPB on 8+8 grid nodes, every implementation vs MPICH2."""

from __future__ import annotations

import math

from repro.experiments.base import ExperimentResult, ShardSpec
from repro.experiments.npb_runs import (
    NPB_ORDER,
    npb_fast_config,
    npb_point_shards,
    shard_times,
)
from repro.impls import ALL_IMPLEMENTATIONS, IMPLEMENTATION_ORDER
from repro.report import Table

PAPER_NOTE = (
    "GridMPI wins big on the collective benchmarks (FT, IS); MPICH2 is "
    "best on LU; BT/SP slightly favour GridMPI; MPICH-Madeleine times "
    "out on BT and SP (bars absent in the paper)"
)


def result_from_times(
    times_by_bench: dict[str, dict[str, float]],
    fast: bool = False,
    placement_kind: str = "grid16",
) -> ExperimentResult:
    """Render Fig. 10 from a ``{bench: {impl: time}}`` matrix."""
    cls, _sample = npb_fast_config(fast)
    table = Table(
        ["NAS"] + [ALL_IMPLEMENTATIONS[n].display_name for n in IMPLEMENTATION_ORDER],
        title=(
            f"Fig. 10: relative performance vs MPICH2 (class {cls}, "
            f"{placement_kind}; >1 = faster, 0 = DNF)"
        ),
    )
    rows = []
    for bench in NPB_ORDER:
        cells = [bench.upper()]
        row = {"bench": bench}
        ref = times_by_bench[bench]["mpich2"]
        for name in IMPLEMENTATION_ORDER:
            t = times_by_bench[bench][name]
            rel = 0.0 if math.isinf(t) else ref / t
            cells.append(rel)
            row[name] = rel
        table.add_row(cells)
        rows.append(row)
    return ExperimentResult(
        "fig10",
        "Fig. 10: NPB relative to MPICH2 on the grid (8+8)",
        "Figure 10, §4.3",
        rows,
        "\n".join([table.render(), "", f"paper: {PAPER_NOTE}"]),
    )


def shards(fast: bool = False, placement_kind: str = "grid16") -> list[ShardSpec]:
    return npb_point_shards((placement_kind,))


def merge(
    payloads: dict[str, dict], fast: bool = False, placement_kind: str = "grid16"
) -> ExperimentResult:
    times_by_bench = {
        bench: shard_times(payloads, placement_kind, bench) for bench in NPB_ORDER
    }
    return result_from_times(times_by_bench, fast, placement_kind)
