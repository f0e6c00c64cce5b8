"""Figure 11 — same comparison as Fig. 10 on 2+2 nodes."""

from __future__ import annotations

from repro.experiments import fig10
from repro.experiments.base import ExperimentResult, ShardSpec

PLACEMENT = "grid4"


def _rebrand(result: ExperimentResult) -> ExperimentResult:
    return ExperimentResult(
        "fig11",
        "Fig. 11: NPB relative to MPICH2 on the grid (2+2)",
        "Figure 11, §4.3",
        result.rows,
        result.text.replace("Fig. 10", "Fig. 11"),
    )


def shards(fast: bool = False) -> list[ShardSpec]:
    return fig10.shards(fast=fast, placement_kind=PLACEMENT)


def merge(payloads: dict[str, dict], fast: bool = False) -> ExperimentResult:
    return _rebrand(fig10.merge(payloads, fast=fast, placement_kind=PLACEMENT))
