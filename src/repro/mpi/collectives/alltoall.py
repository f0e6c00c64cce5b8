"""All-to-all exchange with per-destination sizes (``alltoallv``): the
pairwise algorithm, P-1 balanced rounds.

Each round r exchanges with partner ``rank XOR r`` (power-of-two P) or the
rotation partner otherwise, keeping every NIC busy with exactly one send
and one receive — the standard large-message algorithm in MPICH.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.errors import MpiError


def _partners(size: int, rank: int):
    """Partner sequence for the pairwise exchange."""
    if size & (size - 1) == 0:  # power of two: XOR pairing
        for r in range(1, size):
            yield rank ^ r, rank ^ r
    else:  # rotation: send to rank+r, receive from rank-r
        for r in range(1, size):
            yield (rank + r) % size, (rank - r) % size


def alltoallv_pairwise(
    comm,
    tag: int,
    send_sizes: Sequence[int],
    payloads: Optional[Sequence],
):
    size, rank = comm.size, comm.rank
    if len(send_sizes) != size:
        raise MpiError(f"alltoallv needs {size} sizes, got {len(send_sizes)}")
    if payloads is not None and len(payloads) != size:
        raise MpiError(f"alltoallv needs {size} payloads, got {len(payloads)}")
    result: list[Any] = [None] * size
    sizes_out: list[int] = [0] * size
    result[rank] = payloads[rank] if payloads is not None else None
    sizes_out[rank] = int(send_sizes[rank])
    for dst, src in _partners(size, rank):
        item = payloads[dst] if payloads is not None else None
        send_req = comm._cisend(dst, int(send_sizes[dst]), item, tag)
        result[src], status = yield from comm._crecv(src, tag)
        sizes_out[src] = status.nbytes
        yield from send_req.wait()
    return result, sizes_out
