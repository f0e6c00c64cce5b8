"""Table 4 — one-byte latency, cluster vs grid, TCP + four implementations."""

from __future__ import annotations

from repro.experiments.base import ExperimentResult
from repro.experiments.environments import get_environment, pingpong_pair
from repro.experiments.pingpong_common import TCP_CURVE, pingpong_curve
from repro.impls import IMPLEMENTATION_ORDER
from repro.report import Table
from repro.units import to_usec

#: the paper's measured values (us, one way)
PAPER = {
    "TCP": (41, 5812),
    "MPICH2": (46, 5818),
    "GridMPI": (46, 5819),
    "MPICH-Madeleine": (62, 5826),
    "OpenMPI": (46, 5820),
}


def run(fast: bool = False) -> ExperimentResult:
    env = get_environment("fully_tuned")
    repeats = 5 if fast else 200

    latencies = {}
    for where in ("cluster", "grid"):
        net, a, b = pingpong_pair(where)
        for label in (TCP_CURVE, *IMPLEMENTATION_ORDER):
            curve = pingpong_curve(env, label, net, a, b, [1], repeats)
            latencies[(curve.label, where)] = to_usec(curve.points[0].one_way_latency)

    table = Table(
        ["stack", "cluster (us)", "paper", "grid (us)", "paper"],
        title="Table 4: one-byte latency, Rennes cluster vs Rennes-Nancy grid",
    )
    rows = []
    for label in PAPER:
        cluster = latencies[(label, "cluster")]
        grid = latencies[(label, "grid")]
        p_cluster, p_grid = PAPER[label]
        table.add_row([label, cluster, p_cluster, grid, p_grid])
        rows.append(
            {
                "stack": label,
                "cluster_us": cluster,
                "grid_us": grid,
                "paper_cluster_us": p_cluster,
                "paper_grid_us": p_grid,
            }
        )
    return ExperimentResult(
        "table4", "Table 4: latency comparison", "Table 4, §4.1", rows, table.render()
    )
