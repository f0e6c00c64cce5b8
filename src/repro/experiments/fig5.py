"""Figure 5 — cluster bandwidth with default parameters."""

from __future__ import annotations

from repro.experiments.pingpong_common import PingPongFigure

PAPER_NOTE = (
    "all implementations reach 940 Mbps (the TCP goodput of GbE); every "
    "curve but GridMPI dips at its eager/rendezvous threshold (~128 kB)"
)

FIGURE = PingPongFigure(
    experiment_id="fig5",
    title="Fig. 5: MPI bandwidth in the Rennes cluster, default parameters",
    paper_ref="Figure 5, §4.1",
    where="cluster",
    env_name="default",
    paper_note=PAPER_NOTE,
)

shards = FIGURE.shards
merge = FIGURE.merge
