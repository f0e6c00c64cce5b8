"""Figure 7 — grid bandwidth after TCP *and* MPI (threshold) tuning."""

from __future__ import annotations

from repro.experiments.pingpong_common import PingPongFigure

PAPER_NOTE = (
    "all implementations match TCP (the threshold dip is gone); OpenMPI "
    "alone stays a little lower for big messages"
)

FIGURE = PingPongFigure(
    experiment_id="fig7",
    title="Fig. 7: MPI bandwidth on the grid after TCP + MPI tuning",
    paper_ref="Figure 7, §4.2.2",
    where="grid",
    env_name="fully_tuned",
    paper_note=PAPER_NOTE,
)

shards = FIGURE.shards
merge = FIGURE.merge
