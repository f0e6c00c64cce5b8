#!/usr/bin/env python
"""Which MPI implementation should you use on a grid?

Reproduces the decision the paper's §4.3 supports with Figs. 10 and 12:
run the NAS kernels on 8+8 nodes across the WAN with every
implementation, compare against MPICH2 and against a single-cluster run.

    python examples/nas_grid_study.py            # class A (minutes)
    python examples/nas_grid_study.py --class B  # the paper's class (slower)
"""

import argparse

from repro.experiments.npb_runs import NPB_ORDER, npb_time
from repro.impls import ALL_IMPLEMENTATIONS, IMPLEMENTATION_ORDER
from repro.report import Table, bar_chart


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--class", dest="cls", default="A", choices=["S", "W", "A", "B"])
    args = parser.parse_args()

    # Simulate each (benchmark, implementation, placement) point once.
    points = [(b, n, "grid16") for b in NPB_ORDER for n in IMPLEMENTATION_ORDER]
    points += [(b, "gridmpi", "cluster16") for b in NPB_ORDER]
    times = {point: npb_time(*point, cls=args.cls) for point in points}

    table = Table(
        ["NAS"]
        + [ALL_IMPLEMENTATIONS[n].display_name for n in IMPLEMENTATION_ORDER]
        + ["grid/cluster (GridMPI)"],
        title=f"NPB class {args.cls}, 8+8 grid nodes: execution times (s)",
    )
    for bench in NPB_ORDER:
        cells = [bench.upper()]
        for name in IMPLEMENTATION_ORDER:
            cells.append(times[bench, name, "grid16"])
        t_cluster = times[bench, "gridmpi", "cluster16"]
        t_grid = times[bench, "gridmpi", "grid16"]
        cells.append(t_cluster / t_grid if t_grid != float("inf") else 0.0)
        table.add_row(cells)
    print(table.render())
    print()

    wins = {
        ALL_IMPLEMENTATIONS[name].display_name: sum(
            1
            for bench in NPB_ORDER
            if times[bench, name, "grid16"]
            <= min(times[bench, other, "grid16"] for other in IMPLEMENTATION_ORDER) + 1e-9
        )
        for name in IMPLEMENTATION_ORDER
    }
    print(bar_chart(wins, title="benchmarks won (of 8)"))
    print()
    print(
        "GridMPI's Van de Geijn broadcast and Rabenseifner allreduce win the\n"
        "collective benchmarks outright; the point-to-point kernels are a\n"
        "near tie, with MPICH-Madeleine unable to finish BT and SP (as on\n"
        "the real testbed)."
    )


if __name__ == "__main__":
    main()
