"""CG — Conjugate Gradient (unstructured sparse matvec).

NPB's CG lays the P ranks out as an ``nprows x npcols`` grid over the
sparse matrix.  Every inner CG iteration (cgitmax = 25, plus one extra
matvec per outer iteration) does:

* the matvec reduction along the processor row: log2(npcols) exchanges
  of the partial result vector (~``8 * na / nprows`` bytes — the 147 kB
  messages of Table 2 for class B on 16 ranks),
* the transpose exchange with the mirror rank (same size),
* two dot products: log2(P) pairs of 8 B exchanges.

This mix of *many small* and *some large* messages is why CG suffers on
the grid (Fig. 12: among the worst relative performances — the 8 B
exchanges pay the full 5.8 ms one way).
"""

from __future__ import annotations

from repro.mpi.constants import SUM
from repro.npb.common import (
    PROBLEM,
    per_rank_flops,
    phase,
    sampled_loop,
    validate_config,
    verify_rng,
)

CGITMAX = 25


def _layout(nprocs: int) -> tuple[int, int]:
    """NPB CG: npcols = nprows or 2*nprows (power-of-two nprocs)."""
    log2 = nprocs.bit_length() - 1
    nprows = 1 << (log2 // 2)
    npcols = nprocs // nprows
    return nprows, npcols


def make_program(cls: str, nprocs: int, sample_iters=None):
    validate_config("cg", cls, nprocs)
    params = PROBLEM["cg"][cls]
    na, niter = params["na"], params["niter"]
    nprows, npcols = _layout(nprocs)
    vec_bytes = max(8, 8 * na // nprows)
    flops_per_inner = per_rank_flops("cg", cls, nprocs) / (niter * (CGITMAX + 1))

    def program(ctx):
        comm, rank = ctx.comm, ctx.rank
        # Column-major layout (as in the NPB source): consecutive ranks sit
        # in the same processor *column*, so on a split placement the
        # row-reduction partners and the transpose cross the WAN — the
        # paper's CG is among the worst grid performers for this reason.
        my_col, my_row = divmod(rank, nprows)
        # transpose partner (exchange_proc in the NPB source)
        transpose = (rank % nprows) * npcols + rank // nprows if nprows == npcols else rank

        def row_reduce():
            # row-wise reduction of the partial matvec result
            step = 1
            while step < npcols:
                partner = (my_col ^ step) * nprows + my_row
                if partner != rank:
                    yield from comm.sendrecv(partner, vec_bytes, src=partner)
                step <<= 1

        def transpose_exchange():
            if transpose != rank:
                yield from comm.sendrecv(transpose, vec_bytes, src=transpose)

        def dot_products():
            # two dot products (rho, and p.q): log2(npcols) 8 B exchanges each
            for _ in range(2):
                step = 1
                while step < npcols:
                    partner = (my_col ^ step) * nprows + my_row
                    if partner != rank:
                        yield from comm.sendrecv(partner, 8, src=partner)
                    step <<= 1

        def inner_iteration():
            # sparse matvec + vector updates
            yield from phase(ctx, "compute", ctx.compute(flops_per_inner))
            yield from phase(ctx, "row_reduce", row_reduce())
            yield from phase(ctx, "transpose", transpose_exchange())
            yield from phase(ctx, "dot_products", dot_products())

        def residual():
            # ||r|| for the residual report: one more 8 B reduction
            yield from comm.allreduce(0.0, nbytes=8, op=SUM)

        def outer_iteration(_it):
            for _ in range(CGITMAX + 1):
                yield from inner_iteration()
            yield from phase(ctx, "residual", residual())

        yield from sampled_loop(ctx, niter, sample_iters, outer_iteration)

    return program


def make_verify_program(nprocs: int, n: int = 64, iters: int = 30):
    """A real distributed CG: solve ``A x = b`` for a small SPD matrix with
    row-block partitioning; the distributed residual must match a serial
    CG run and the solution must approach ``numpy.linalg.solve``."""
    import numpy as np

    rng = verify_rng("cg")
    m = rng.standard_normal((n, n))
    a = m @ m.T + n * np.eye(n)  # SPD, well conditioned
    b = rng.standard_normal(n)
    x_exact = np.linalg.solve(a, b)
    rows_per = n // nprocs

    def program(ctx):
        comm, rank = ctx.comm, ctx.rank
        lo, hi = rank * rows_per, (rank + 1) * rows_per if rank < nprocs - 1 else n
        a_local = a[lo:hi]
        x = np.zeros(n)
        r = b.copy()
        p = r.copy()
        rho = float(r @ r)
        for _ in range(iters):
            # distributed matvec: everyone needs all of p -> allgather of
            # local q slices after local compute
            q_local = a_local @ p
            blocks = yield from comm.allgather(q_local, nbytes_each=q_local.nbytes)
            q = np.concatenate(blocks)
            pq = yield from comm.allreduce(float(p[lo:hi] @ q[lo:hi]), nbytes=8, op=SUM)
            alpha = rho / pq
            x = x + alpha * p
            r = r - alpha * q
            rho_new = yield from comm.allreduce(float(r[lo:hi] @ r[lo:hi]), nbytes=8, op=SUM)
            p = r + (rho_new / rho) * p
            rho = rho_new
        return float(np.linalg.norm(x - x_exact) / np.linalg.norm(x_exact))

    return program
