"""Shared NPB executions for the Figure 10-13 experiments.

Figures 10, 12 and 13 all consume the same grid-8+8 runs: each (benchmark,
placement) point is one shard whose ``task_id`` the three figures share,
so a campaign simulates it once.
"""

from __future__ import annotations

from repro.experiments.environments import (
    cluster_placement,
    get_environment,
    grid_placement,
)
from repro.npb import run_npb

#: paper order of the NPB bars (Figs. 10-13)
NPB_ORDER = ("ep", "cg", "mg", "lu", "sp", "bt", "is", "ft")

#: Figs. 10-13 run on the fully tuned grid (§4.3)
NPB_ENVIRONMENT = "fully_tuned"


def npb_time(
    bench: str,
    impl_name: str,
    placement_kind: str,
    cls: str = "B",
    sample_iters: "int | None | str" = "default",
) -> float:
    """Execution time (virtual seconds; ``inf`` for a known failure).

    ``placement_kind``: ``grid16`` (8+8), ``grid4`` (2+2), ``cluster16``,
    ``cluster4``.
    """
    env = get_environment(NPB_ENVIRONMENT)
    if placement_kind.startswith("grid"):
        nprocs = int(placement_kind.removeprefix("grid"))
        network, placement = grid_placement(nprocs)
    elif placement_kind.startswith("cluster"):
        nprocs = int(placement_kind.removeprefix("cluster"))
        network, placement = cluster_placement(nprocs)
    else:
        raise ValueError(f"unknown placement kind {placement_kind!r}")

    result = run_npb(
        bench,
        cls,
        network,
        env.impl(impl_name),
        placement,
        sysctls=env.sysctls,
        sample_iters=sample_iters,
    )
    return result.time


# --- sharding (see repro.experiments.base) ---------------------------------------
def npb_fast_config(fast: bool) -> tuple[str, "int | str"]:
    """The (class, sample_iters) pair figs 10-13 use for one fast flag."""
    return ("A", 4) if fast else ("B", "default")


def run_npb_point_shard(bench: str, placement_kind: str, fast: bool = False) -> dict:
    """Worker-side shard: one NPB benchmark on one placement, all impls.

    The task_id namespace ``npb/<placement>/<bench>`` is shared between
    figs 10-13, so a campaign computes each point exactly once even though
    three figures consume the grid16 column.
    """
    from repro.impls import IMPLEMENTATION_ORDER

    cls, sample = npb_fast_config(fast)
    return {
        "times": {
            name: npb_time(bench, name, placement_kind, cls=cls, sample_iters=sample)
            for name in IMPLEMENTATION_ORDER
        }
    }


def npb_point_shards(placement_kinds: "tuple[str, ...]") -> list:
    """Shard specs covering ``NPB_ORDER`` × the given placements."""
    from repro.experiments.base import ShardSpec

    return [
        ShardSpec(
            task_id=f"npb/{placement_kind}/{bench}",
            runner="repro.experiments.npb_runs:run_npb_point_shard",
            params={"bench": bench, "placement_kind": placement_kind},
        )
        for placement_kind in placement_kinds
        for bench in NPB_ORDER
    ]


def shard_times(payloads: dict, placement_kind: str, bench: str) -> dict[str, float]:
    """Extract one point's per-impl times from merged shard payloads."""
    return payloads[f"npb/{placement_kind}/{bench}"]["times"]

