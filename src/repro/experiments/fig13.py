"""Figure 13 — 16 grid nodes vs 4 cluster nodes: is the grid worth it?

Speedup = time(4 nodes, one cluster) / time(8+8 across the WAN); the
ideal is 4.  The paper: LU and BT come close to 4, FT and SP reach at
least 3, CG and MG barely gain — yet *every* benchmark gains, which is
the paper's core argument for running MPI applications on the grid.
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
    small_times: dict[str, dict[str, float]],
    grid_times: dict[str, dict[str, float]],
    fast: bool = False,
) -> ExperimentResult:
    cls, _sample = npb_fast_config(fast)
    table = Table(
        ["NAS"] + [ALL_IMPLEMENTATIONS[n].display_name for n in IMPLEMENTATION_ORDER],
        title=(
            f"Fig. 13: speedup of 8+8 grid nodes over 4 cluster nodes "
            f"(class {cls}; ideal 4, 0 = DNF)"
        ),
    )
    rows = []
    for bench in NPB_ORDER:
        cells = [bench.upper()]
        row = {"bench": bench}
        for name in IMPLEMENTATION_ORDER:
            t_small = small_times[bench][name]
            t_grid = grid_times[bench][name]
            speedup = 0.0 if math.isinf(t_grid) else t_small / t_grid
            cells.append(speedup)
            row[name] = speedup
        table.add_row(cells)
        rows.append(row)
    return ExperimentResult(
        "fig13",
        "Fig. 13: grid speedup over a 4-node cluster",
        "Figure 13, §4.3",
        rows,
        table.render(),
    )


def shards(fast: bool = False) -> list[ShardSpec]:
    # grid16 shards are shared (same task_ids) with figs 10 and 12.
    return npb_point_shards(("cluster4", "grid16"))


def merge(payloads: dict[str, dict], fast: bool = False) -> ExperimentResult:
    small_times = {b: shard_times(payloads, "cluster4", b) for b in NPB_ORDER}
    grid_times = {b: shard_times(payloads, "grid16", b) for b in NPB_ORDER}
    return _result_from_times(small_times, grid_times, fast)
