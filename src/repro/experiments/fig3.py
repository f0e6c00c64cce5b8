"""Figure 3 — grid bandwidth with default parameters (the collapse)."""

from __future__ import annotations

from repro.experiments.pingpong_common import PingPongFigure

PAPER_NOTE = (
    "none of the implementations nor direct TCP exceeds 120 Mbps on the "
    "1 Gbps Rennes-Nancy path with default parameters"
)

FIGURE = PingPongFigure(
    experiment_id="fig3",
    title="Fig. 3: MPI bandwidth on the grid, default parameters",
    paper_ref="Figure 3, §4.1",
    where="grid",
    env_name="default",
    paper_note=PAPER_NOTE,
)

shards = FIGURE.shards
merge = FIGURE.merge
