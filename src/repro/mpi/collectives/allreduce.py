"""Allreduce algorithms.

``recursive_doubling``
    log2(P) exchange rounds of the full vector — latency-optimal, moves
    ``nbytes * log2(P)`` per rank (the MPICH-family default).
``rabenseifner``
    reduce-scatter (recursive halving) + allgather (recursive doubling):
    moves only ``2 * nbytes * (P-1)/P`` per rank — GridMPI's
    bandwidth-optimal choice for large vectors (Matsuda et al.,
    Cluster'06).  The exchange dimensions are ordered so the *highest*
    rank bit — the inter-site dimension under the standard contiguous
    placement — carries the smallest blocks: the reduce-scatter crosses
    the WAN with ``nbytes/P`` instead of ``nbytes/2``, which is the
    long-fat-network adaptation the GridMPI authors describe.  Falls
    back to recursive doubling for small vectors, non-power-of-two rank
    counts, and opaque payloads (where the semantically required vector
    split is impossible).
``hierarchical``
    topology-aware (§5 future work): LAN-local combine to each site
    leader, one symmetric WAN exchange among the leaders (every leader
    sends its partial to every other, all transfers overlapping),
    LAN-local broadcast — ``S(S-1)`` WAN messages instead of the ``P``
    full-vector crossings of recursive doubling's inter-site round, and
    a single overlapped WAN traversal instead of a star's two.
"""

from __future__ import annotations

from typing import Any

from repro.obs import runtime as _obs
from repro.mpi.collectives.bcast import SEGMENT_SWITCH_BYTES
from repro.mpi.collectives.hierarchy import (
    hier_span,
    local_bcast,
    local_reduce,
    site_layout,
)
from repro.mpi.collectives.segutil import chunk_sizes, is_array, join_array


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def allreduce_recursive_doubling(comm, tag: int, nbytes: int, payload: Any, op):
    size, rank = comm.size, comm.rank
    if size == 1:
        return payload
    result = payload

    # Fold the remainder down to the nearest power of two.
    pof2 = 1
    while pof2 * 2 <= size:
        pof2 *= 2
    rem = size - pof2

    if rank < 2 * rem:
        if rank % 2 == 0:  # evens hand their data to the odd neighbour
            yield from comm._csend(rank + 1, nbytes, result, tag)
            newrank = -1
        else:
            other, _ = yield from comm._crecv(rank - 1, tag)
            result = op(result, other)
            newrank = rank // 2
    else:
        newrank = rank - rem

    if newrank >= 0:
        mask = 1
        while mask < pof2:
            newpartner = newrank ^ mask
            partner = (
                newpartner * 2 + 1 if newpartner < rem else newpartner + rem
            )
            send_req = comm._cisend(partner, nbytes, result, tag)
            other, _ = yield from comm._crecv(partner, tag)
            yield from send_req.wait()
            result = op(result, other)
            mask <<= 1

    # Unfold: give the folded evens their result back.
    if rank < 2 * rem:
        if rank % 2 == 0:
            result, _ = yield from comm._crecv(rank + 1, tag)
        else:
            yield from comm._csend(rank - 1, nbytes, result, tag)
    return result


def allreduce_rabenseifner(comm, tag: int, nbytes: int, payload: Any, op):
    size, rank = comm.size, comm.rank
    if size == 1:
        return payload
    splittable = payload is None or is_array(payload)
    if (
        not _is_power_of_two(size)
        or nbytes < SEGMENT_SWITCH_BYTES
        or not splittable
    ):
        result = yield from allreduce_recursive_doubling(comm, tag, nbytes, payload, op)
        return result

    steps = size.bit_length() - 1
    sizes = chunk_sizes(nbytes, size)
    if payload is None:
        segments: dict[int, object] = {i: None for i in range(size)}
    else:
        import numpy as np

        flat = np.asarray(payload).reshape(-1)
        bounds = np.array_split(np.arange(flat.size), size)
        segments = {i: flat[idx] for i, idx in enumerate(bounds)}
    shape = payload.shape if is_array(payload) else None

    sess = _obs.ACTIVE
    trace_phases = sess is not None and sess.spans
    obs_lane = f"rank{rank}"

    # --- reduce-scatter by recursive halving --------------------------------------
    # Round k exchanges across rank bit k (lowest bit first): the highest
    # bit — inter-site under contiguous placement — goes last, when only
    # 2/P of the vector remains in play.
    t_rs = comm.env.now
    owned = set(range(size))
    for k in range(steps):
        bit = 1 << k
        partner = rank ^ bit
        keep = {i for i in owned if (i & bit) == (rank & bit)}
        give = owned - keep
        send_bytes = sum(sizes[i] for i in give)
        send_payload = {i: segments[i] for i in give} if payload is not None else None
        send_req = comm._cisend(partner, send_bytes, send_payload, tag)
        other, _ = yield from comm._crecv(partner, tag)
        yield from send_req.wait()
        if payload is not None:
            for i, seg in other.items():
                segments[i] = op(segments[i], seg)
        owned = keep

    # Each rank now owns exactly its own reduced segment: owned == {rank}.
    if trace_phases:
        sess.complete(
            t_rs,
            comm.env.now - t_rs,
            "allreduce.rab.reduce_scatter",
            "mpi.collective.phase",
            obs_lane,
            {"bytes": nbytes},
        )

    # --- allgather by recursive doubling --------------------------------------------
    # Mirror order (highest bit first): the inter-site exchange happens
    # while each rank holds a single segment.
    t_ag = comm.env.now
    for k in reversed(range(steps)):
        bit = 1 << k
        partner = rank ^ bit
        send_bytes = sum(sizes[i] for i in owned)
        send_payload = {i: segments[i] for i in owned} if payload is not None else None
        send_req = comm._cisend(partner, send_bytes, send_payload, tag)
        other, _ = yield from comm._crecv(partner, tag)
        yield from send_req.wait()
        if payload is not None:
            segments.update(other)
            owned = owned | set(other)
        else:
            owned = owned | {i ^ bit for i in owned}
    if trace_phases:
        sess.complete(
            t_ag,
            comm.env.now - t_ag,
            "allreduce.rab.allgather",
            "mpi.collective.phase",
            obs_lane,
            {"bytes": nbytes},
        )

    if payload is None:
        return None
    return join_array([segments[i] for i in range(size)], shape)


def allreduce_hierarchical(comm, tag: int, nbytes: int, payload: Any, op):
    """LAN combine -> symmetric leader exchange -> LAN broadcast."""
    layout = site_layout(comm, 0)
    if layout.single_site:
        result = yield from allreduce_recursive_doubling(comm, tag, nbytes, payload, op)
        return result
    rank = comm.rank

    # Phase 1 (LAN): combine within each site to its leader.
    t_lan = comm.env.now
    result = yield from local_reduce(comm, tag, layout, nbytes, payload, op)
    if len(layout.local) > 1:
        hier_span(comm, "allreduce", "lan", t_lan, nbytes, layout)

    # Phase 2 (WAN): every leader sends its partial to every other leader
    # and combines what it receives in leader-election order — the same
    # order on every leader, so all sites compute the identical total.
    # All transfers overlap: one WAN traversal, not a star's two.
    if layout.is_leader:
        t_wan = comm.env.now
        partials = {rank: result}
        requests = [
            comm._cisend(leader, nbytes, result, tag)
            for leader in layout.leaders
            if leader != rank
        ]
        for leader in layout.leaders:
            if leader != rank:
                other, _ = yield from comm._crecv(leader, tag)
                partials[leader] = other
        for request in requests:
            yield from request.wait()
        result = partials[layout.leaders[0]]
        for leader in layout.leaders[1:]:
            result = op(result, partials[leader])
        hier_span(comm, "allreduce", "wan", t_wan, nbytes, layout)

    # Phase 3 (LAN): leaders broadcast the total within their site.
    t_out = comm.env.now
    result = yield from local_bcast(comm, tag, layout, nbytes, result)
    if len(layout.local) > 1:
        hier_span(comm, "allreduce", "lan", t_out, nbytes, layout)
    return result
