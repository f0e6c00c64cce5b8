"""Figure 12 — grid (8+8) vs one cluster (16 nodes), per implementation.

Relative performance = time(16 in one cluster) / time(8+8 across the
WAN); 1 means the grid costs nothing.  The paper's reading: EP ≈ 1,
LU/SP/BT hold up (big messages), CG/MG collapse (small messages), FT
benefits from GridMPI's broadcast while IS stays poor.
"""

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


def _result_from_times(
    cluster_times: dict[str, dict[str, float]],
    grid_times: dict[str, dict[str, float]],
    fast: bool = False,
) -> ExperimentResult:
    cls, _sample = npb_fast_config(fast)
    table = Table(
        ["NAS"] + [ALL_IMPLEMENTATIONS[n].display_name for n in IMPLEMENTATION_ORDER],
        title=(
            f"Fig. 12: relative performance of 8+8 grid nodes vs 16 cluster "
            f"nodes (class {cls}; 1 = no grid penalty, 0 = DNF)"
        ),
    )
    rows = []
    for bench in NPB_ORDER:
        cells = [bench.upper()]
        row = {"bench": bench}
        for name in IMPLEMENTATION_ORDER:
            t_cluster = cluster_times[bench][name]
            t_grid = grid_times[bench][name]
            rel = 0.0 if math.isinf(t_grid) else t_cluster / t_grid
            cells.append(rel)
            row[name] = rel
        table.add_row(cells)
        rows.append(row)
    return ExperimentResult(
        "fig12",
        "Fig. 12: grid vs cluster at equal node count",
        "Figure 12, §4.3",
        rows,
        table.render(),
    )


def shards(fast: bool = False) -> list[ShardSpec]:
    # grid16 shards are shared (same task_ids) with figs 10 and 13.
    return npb_point_shards(("cluster16", "grid16"))


def merge(payloads: dict[str, dict], fast: bool = False) -> ExperimentResult:
    cluster_times = {b: shard_times(payloads, "cluster16", b) for b in NPB_ORDER}
    grid_times = {b: shard_times(payloads, "grid16", b) for b in NPB_ORDER}
    return _result_from_times(cluster_times, grid_times, fast)
