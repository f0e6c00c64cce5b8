"""Allgather (each rank contributes one block, all get all): the ring.

P-1 pipelined neighbour exchanges; bandwidth-optimal, the block crosses
each WAN cut only once per position.
"""

from __future__ import annotations

from typing import Any


def allgather_ring(comm, tag: int, nbytes_each: int, payload: Any):
    size, rank = comm.size, comm.rank
    blocks: list[Any] = [None] * size
    blocks[rank] = payload
    if size == 1:
        return blocks
    right = (rank + 1) % size
    left = (rank - 1) % size
    for step in range(size - 1):
        send_idx = (rank - step) % size
        recv_idx = (rank - step - 1) % size
        send_req = comm._cisend(right, nbytes_each, blocks[send_idx], tag)
        blocks[recv_idx], _ = yield from comm._crecv(left, tag)
        yield from send_req.wait()
    return blocks

