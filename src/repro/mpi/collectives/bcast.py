"""Broadcast algorithms.

``binomial``
    log2(P) rounds; each tree edge moves the full message.  On a grid
    split, several edges cross the WAN with the whole payload — the
    default that GridMPI improves on.
``van_de_geijn``
    scatter + ring allgather (GridMPI's large-message broadcast,
    after Matsuda et al. Cluster'06): every WAN crossing carries only a
    1/P segment, and the ring pipelines them.  Below
    ``SEGMENT_SWITCH_BYTES`` it falls back to binomial, as real
    implementations do.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.obs import runtime as _obs
from repro.mpi.collectives.segutil import (
    chunk_sizes,
    is_array,
    join_array,
    payload_shape,
    split_array,
)

#: below this size the segment-based algorithms degrade to binomial
SEGMENT_SWITCH_BYTES = 16 * 1024


def bcast_binomial(comm, tag: int, root: int, nbytes: int, payload: Any):
    size, rank = comm.size, comm.rank
    vrank = (rank - root) % size
    mask = 1
    while mask < size:
        if vrank & mask:
            src = (vrank - mask + root) % size
            payload, _ = yield from comm._crecv(src, tag)
            break
        mask <<= 1
    mask >>= 1
    while mask > 0:
        if vrank + mask < size:
            dst = (vrank + mask + root) % size
            yield from comm._csend(dst, nbytes, payload, tag)
        mask >>= 1
    return payload


def bcast_van_de_geijn(comm, tag: int, root: int, nbytes: int, payload: Any):
    size, rank = comm.size, comm.rank
    if size == 1:
        return payload
    if nbytes < SEGMENT_SWITCH_BYTES:
        result = yield from bcast_binomial(comm, tag, root, nbytes, payload)
        return result

    vrank = (rank - root) % size
    sizes = chunk_sizes(nbytes, size)
    shape = payload_shape(payload)
    array = is_array(payload)
    if rank == root:
        segments: Optional[list] = (
            split_array(payload, size) if array else [payload] * size
        )
        if payload is None:
            segments = [None] * size
    else:
        segments = [None] * size

    sess = _obs.ACTIVE
    trace_phases = sess is not None and sess.spans
    obs_lane = f"rank{rank}"

    # --- binomial scatter of the segments -------------------------------------
    # Each rank tracks the vrank interval [lo, hi) it belongs to; the
    # interval owner (lo) forwards the upper half of its segments.
    t_scatter = comm.env.now
    lo, hi = 0, size
    meta = shape if rank == root else None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        upper_bytes = sum(sizes[mid:hi])
        if vrank == lo:
            chunk = segments[mid:hi]
            yield from comm._csend(
                (mid + root) % size, upper_bytes, (meta, chunk), tag
            )
        elif vrank == mid:
            (meta, chunk), _ = yield from comm._crecv((lo + root) % size, tag)
            segments[mid:hi] = chunk
        if vrank < mid:
            hi = mid
        else:
            lo = mid
    shape = meta
    if trace_phases:
        sess.complete(
            t_scatter,
            comm.env.now - t_scatter,
            "bcast.vdg.scatter",
            "mpi.collective.phase",
            obs_lane,
            {"bytes": nbytes},
        )

    # --- ring allgather of the segments ----------------------------------------
    t_ring = comm.env.now
    right = (vrank + 1) % size
    left = (vrank - 1) % size
    for step in range(size - 1):
        send_idx = (vrank - step) % size
        recv_idx = (vrank - step - 1) % size
        send_req = comm._cisend(
            (right + root) % size, sizes[send_idx], (shape, segments[send_idx]), tag
        )
        (shape_in, seg), _ = yield from comm._crecv((left + root) % size, tag)
        segments[recv_idx] = seg
        if shape_in is not None:
            shape = shape_in
        yield from send_req.wait()
    if trace_phases:
        sess.complete(
            t_ring,
            comm.env.now - t_ring,
            "bcast.vdg.allgather",
            "mpi.collective.phase",
            obs_lane,
            {"bytes": nbytes},
        )

    if rank == root:
        return payload
    # Decide from what was received: arrays are reassembled, opaque
    # payloads were carried whole in every segment, None stays None.
    if segments and is_array(segments[0]):
        return join_array(segments, shape if shape is not None else (-1,))
    return segments[0]

