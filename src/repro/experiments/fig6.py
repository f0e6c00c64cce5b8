"""Figure 6 — grid bandwidth after the TCP tuning of §4.2.1."""

from __future__ import annotations

from repro.experiments.pingpong_common import PingPongFigure

PAPER_NOTE = (
    "~900 Mbps maximum on the grid (940 in the cluster); half bandwidth "
    "only around 1 MB; the eager/rendezvous dip (~128 kB) persists for "
    "all but GridMPI"
)

FIGURE = PingPongFigure(
    experiment_id="fig6",
    title="Fig. 6: MPI bandwidth on the grid after TCP tuning",
    paper_ref="Figure 6, §4.2.1",
    where="grid",
    env_name="tcp_tuned",
    paper_note=PAPER_NOTE,
)

shards = FIGURE.shards
merge = FIGURE.merge
