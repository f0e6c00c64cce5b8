"""Figures 10-13 — NPB times of the four implementations as ratio tables.

§4.3 measures one thing, the NPB kernels' execution times for every
implementation on four placements, and shows it as four ratios.  Each
cell is ``reference time / time`` (0 when the time is a known failure):

* Fig. 10 (8+8 grid) and Fig. 11 (2+2 grid): every implementation vs
  MPICH2 on the same placement; >1 is faster than MPICH2.
* Fig. 12: 16 nodes in one cluster vs 8+8 across the WAN, per
  implementation; 1 means the grid costs nothing.  The paper's reading:
  EP ≈ 1, LU/SP/BT hold up (big messages), CG/MG collapse (small
  messages), FT benefits from GridMPI's broadcast while IS stays poor.
* Fig. 13: 4 nodes in one cluster vs 8+8 across the WAN, the speedup the
  grid buys; the ideal is 4.  The paper: LU and BT come close to 4, FT
  and SP reach at least 3, CG and MG barely gain — yet *every* benchmark
  gains, which is the paper's core argument for running MPI applications
  on the grid.

The shards are :mod:`repro.experiments.npb_runs`' points, shared by
``task_id`` between the figures (Figs. 10, 12 and 13 all read grid16).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.experiments.base import ExperimentResult, ShardSpec
from repro.experiments.npb_runs import (
    NPB_ORDER,
    npb_fast_config,
    npb_point_shards,
    shard_times,
)
from repro.impls import ALL_IMPLEMENTATIONS, IMPLEMENTATION_ORDER
from repro.report import Table


@dataclass(frozen=True)
class NpbFigure:
    """Descriptor backing one NPB ratio figure: its shard hooks."""

    experiment_id: str
    title: str
    paper_ref: str
    #: the table's title; ``{cls}`` is replaced by the NPB class
    caption: str
    #: placement of the measured times
    placement: str
    #: placement of each cell's reference time
    reference_placement: str
    #: implementation of the reference time; ``None``: the cell's own
    reference_impl: Optional[str] = None
    paper_note: Optional[str] = None

    def shards(self, fast: bool = False) -> list[ShardSpec]:
        return npb_point_shards(
            tuple(dict.fromkeys((self.reference_placement, self.placement)))
        )

    def merge(self, payloads: dict[str, dict], fast: bool = False) -> ExperimentResult:
        cls, _sample = npb_fast_config(fast)
        table = Table(
            ["NAS"] + [ALL_IMPLEMENTATIONS[n].display_name for n in IMPLEMENTATION_ORDER],
            title=self.caption.format(cls=cls),
        )
        rows = []
        for bench in NPB_ORDER:
            times = shard_times(payloads, self.placement, bench)
            ref_times = shard_times(payloads, self.reference_placement, bench)
            cells = [bench.upper()]
            row = {"bench": bench}
            for name in IMPLEMENTATION_ORDER:
                t = times[name]
                ratio = 0.0 if math.isinf(t) else ref_times[self.reference_impl or name] / t
                cells.append(ratio)
                row[name] = ratio
            table.add_row(cells)
            rows.append(row)
        text = table.render()
        if self.paper_note is not None:
            text = "\n".join([text, "", f"paper: {self.paper_note}"])
        return ExperimentResult(self.experiment_id, self.title, self.paper_ref, rows, text)


_VS_MPICH2_NOTE = (
    "GridMPI wins big on the collective benchmarks (FT, IS); MPICH2 is "
    "best on LU; BT/SP slightly favour GridMPI; MPICH-Madeleine times "
    "out on BT and SP (bars absent in the paper)"
)

FIG10 = NpbFigure(
    experiment_id="fig10",
    title="Fig. 10: NPB relative to MPICH2 on the grid (8+8)",
    paper_ref="Figure 10, §4.3",
    caption=(
        "Fig. 10: relative performance vs MPICH2 (class {cls}, grid16; "
        ">1 = faster, 0 = DNF)"
    ),
    placement="grid16",
    reference_placement="grid16",
    reference_impl="mpich2",
    paper_note=_VS_MPICH2_NOTE,
)

FIG11 = NpbFigure(
    experiment_id="fig11",
    title="Fig. 11: NPB relative to MPICH2 on the grid (2+2)",
    paper_ref="Figure 11, §4.3",
    caption=(
        "Fig. 11: relative performance vs MPICH2 (class {cls}, grid4; "
        ">1 = faster, 0 = DNF)"
    ),
    placement="grid4",
    reference_placement="grid4",
    reference_impl="mpich2",
    paper_note=_VS_MPICH2_NOTE,
)

FIG12 = NpbFigure(
    experiment_id="fig12",
    title="Fig. 12: grid vs cluster at equal node count",
    paper_ref="Figure 12, §4.3",
    caption=(
        "Fig. 12: relative performance of 8+8 grid nodes vs 16 cluster "
        "nodes (class {cls}; 1 = no grid penalty, 0 = DNF)"
    ),
    placement="grid16",
    reference_placement="cluster16",
)

FIG13 = NpbFigure(
    experiment_id="fig13",
    title="Fig. 13: grid speedup over a 4-node cluster",
    paper_ref="Figure 13, §4.3",
    caption=(
        "Fig. 13: speedup of 8+8 grid nodes over 4 cluster nodes "
        "(class {cls}; ideal 4, 0 = DNF)"
    ),
    placement="grid16",
    reference_placement="cluster4",
)
