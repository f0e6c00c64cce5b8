"""coll_hier — hierarchical vs flat collectives on the 8+8 grid.

The paper's §2.1 credits MPICH-G2's topology-aware (site-hierarchical)
collectives; the model generalises that bcast-only hierarchy to reduce,
allreduce and gather (:mod:`repro.mpi.collectives.hierarchy`).  This
experiment quantifies the payoff: each collective runs on the 16-process
8+8 grid placement with MPICH2's flat default algorithm and again with
the ``hierarchical`` variant, across message sizes, timing one call and
counting the messages (and bytes) that cross the WAN.

The hierarchy's contract: per collective call only the site leaders talk
across the WAN — O(sites) crossings instead of the flat algorithms'
O(P) — so the win grows with message size, where each avoided crossing
carries a full payload over the 11.6 ms path.

Ranks are placed *cyclically* across the two sites (rank i on site
i mod 2), the order a site-unaware ``mpirun`` machine file typically
produces.  Under the contiguous block placement a binomial tree rooted
at rank 0 happens to be site-aligned (exactly one WAN edge), so flat and
hierarchical coincide; the cyclic placement is the general case the
hierarchy exists for — its leader election depends on site membership
only, never on rank contiguity, while every flat tree edge between
neighbouring ranks becomes a WAN crossing.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult, ShardSpec
from repro.experiments.environments import get_environment, grid_placement
from repro.mpi.runtime import MpiJob
from repro.report import Table
from repro.units import KB, MB, fmt_bytes

#: the collectives gaining a hierarchical variant in this model
OPS = ("reduce", "allreduce", "gather")

#: the flat baseline each one is compared against (the engine defaults
#: MPICH2 uses; see ``repro.mpi.collectives.DEFAULTS``)
FLAT = {
    "reduce": "binomial",
    "allreduce": "recursive_doubling",
    "gather": "binomial",
}
HIERARCHICAL = "hierarchical"

_ENV = "fully_tuned"
_PLACEMENT = "grid16"
_IMPL = "mpich2"


def coll_sizes(fast: bool) -> tuple[int, ...]:
    """Message sizes swept per collective (bytes per rank for gather)."""
    if fast:
        return (KB, 64 * KB, MB)
    return (KB, 16 * KB, 256 * KB, MB, 4 * MB, 16 * MB)


def _task_id(op: str, algorithm: str) -> str:
    return f"coll_hier/{_PLACEMENT}/{op}/{algorithm}"


def cyclic_placement(nprocs: int):
    """Grid placement with ranks alternating sites (rank i on site i mod 2)."""
    network, block = grid_placement(nprocs)
    half = nprocs // 2
    return network, [block[(i % 2) * half + i // 2] for i in range(nprocs)]


def _call(comm, op: str, nbytes: int):
    if op == "reduce":
        yield from comm.reduce(None, nbytes=nbytes)
    elif op == "allreduce":
        yield from comm.allreduce(None, nbytes=nbytes)
    else:
        yield from comm.gather(None, nbytes_each=nbytes)


def run_coll_shard(op: str, algorithm: str, fast: bool = False) -> dict:
    """Worker-side shard: one (collective, algorithm) size sweep.

    Two fresh jobs per size.  The *timing* job runs a warmup call (TCP
    establishment and slow start happen there), a barrier to resynchronise
    the ranks, then the timed call — rank 0's entry-to-completion time is
    the point.  The *counting* job runs the collective exactly once with
    tracing on, so the WAN-crossing counters see that call's messages and
    nothing else (no warmup, no barrier traffic).
    """
    env = get_environment(_ENV)
    network, placement = cyclic_placement(16)
    impl = env.impl(_IMPL).with_collective(op, algorithm)
    points: dict[str, dict] = {}
    for nbytes in coll_sizes(fast):

        def timing_program(ctx, nbytes=nbytes):
            comm = ctx.comm
            yield from _call(comm, op, nbytes)
            yield from comm.barrier()
            t0 = ctx.wtime()
            yield from _call(comm, op, nbytes)
            return ctx.wtime() - t0

        def counting_program(ctx, nbytes=nbytes):
            yield from _call(ctx.comm, op, nbytes)

        timing = MpiJob(
            network, impl, placement, sysctls=env.sysctls, trace=False
        ).run(timing_program)
        counting = MpiJob(
            network, impl, placement, sysctls=env.sysctls, trace=True
        ).run(counting_program)
        points[str(nbytes)] = {
            "seconds": timing.returns[0],
            "wan_msgs": counting.trace.inter_site_messages,
            "wan_bytes": counting.trace.inter_site_bytes,
        }
    return {"points": points}


def _result(data: dict, fast: bool) -> ExperimentResult:
    """Render from ``{op: {algorithm: {size: point}}}``."""
    table = Table(
        ["collective", "size", "flat s", "hier s", "speedup", "WAN msgs", "hier WAN"],
        title=(
            "coll_hier: hierarchical vs flat collectives "
            f"({_IMPL}, {_PLACEMENT} 8+8; WAN msgs per call, flat vs hier)"
        ),
    )
    rows = []
    for op in OPS:
        flat_pts = data[op][FLAT[op]]
        hier_pts = data[op][HIERARCHICAL]
        for key in sorted(flat_pts, key=int):
            nbytes = int(key)
            flat = flat_pts[key]
            hier = hier_pts[key]
            speedup = flat["seconds"] / hier["seconds"]
            table.add_row(
                [
                    f"{op} ({FLAT[op]})",
                    fmt_bytes(nbytes),
                    flat["seconds"],
                    hier["seconds"],
                    f"x{speedup:.2f}",
                    int(flat["wan_msgs"]),
                    int(hier["wan_msgs"]),
                ]
            )
            rows.append(
                {
                    "op": op,
                    "nbytes": nbytes,
                    "flat_algorithm": FLAT[op],
                    "flat_seconds": flat["seconds"],
                    "hier_seconds": hier["seconds"],
                    "speedup": speedup,
                    "wan_msgs_flat": flat["wan_msgs"],
                    "wan_msgs_hier": hier["wan_msgs"],
                    "wan_bytes_flat": flat["wan_bytes"],
                    "wan_bytes_hier": hier["wan_bytes"],
                }
            )
    note = (
        "extension of §2.1's topology-aware bcast to reduce/allreduce/"
        "gather: only site leaders cross the WAN, so crossings drop from "
        "O(P) to O(sites) per call. For the reducible ops the hierarchy "
        "also cuts WAN *bytes* (partials combine before crossing) and "
        "wins at large sizes; gather's volume is irreducible, so its "
        "single aggregated transfer loses to the flat tree's parallel "
        "leaf sends once bandwidth dominates — the classic wide-area "
        "collectives trade-off (MagPIe, MPICH-G2)"
    )
    text = "\n".join([table.render(), "", f"paper: {note}"])
    return ExperimentResult(
        experiment_id="coll_hier",
        title="Hierarchical vs flat collectives on the grid (8+8)",
        paper_ref="extension of §2.1 (MPICH-G2 multilevel collectives)",
        rows=rows,
        text=text,
    )


def _algorithms(op: str) -> tuple[str, str]:
    return (FLAT[op], HIERARCHICAL)


def shards(fast: bool = False) -> list[ShardSpec]:
    return [
        ShardSpec(
            task_id=_task_id(op, algorithm),
            runner="repro.experiments.coll_hier:run_coll_shard",
            params={"op": op, "algorithm": algorithm},
        )
        for op in OPS
        for algorithm in _algorithms(op)
    ]


def merge(payloads: dict[str, dict], fast: bool = False) -> ExperimentResult:
    data = {
        op: {
            algorithm: payloads[_task_id(op, algorithm)]["points"]
            for algorithm in _algorithms(op)
        }
        for op in OPS
    }
    return _result(data, fast)
