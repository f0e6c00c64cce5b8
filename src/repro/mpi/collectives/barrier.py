"""Barrier: the dissemination algorithm.

ceil(log2 P) rounds of 1-byte notifications; on a grid split every round
sends across the WAN.
"""


def barrier_dissemination(comm, tag: int):
    size, rank = comm.size, comm.rank
    if size == 1:
        return
    step = 1
    while step < size:
        dst = (rank + step) % size
        src = (rank - step) % size
        send_req = comm._cisend(dst, 1, None, tag)
        yield from comm._crecv(src, tag)
        yield from send_req.wait()
        step <<= 1

