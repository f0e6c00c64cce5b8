"""FT — 3D FFT of a complex field.

The paper characterises FT's communication as collective and dominated by
``MPI_Bcast`` (Table 2, §4.3: "FT takes advantage of the optimization
done on the MPI_Bcast primitive in GridMPI"), so the skeleton follows the
paper: every iteration redistributes the evolved volume — modelled as a
broadcast of one rank's local slab (``16 * nx*ny*nz / P`` bytes of
complex doubles, the transpose volume per rank) — plus the tiny checksum
allreduce.  This bandwidth-bound broadcast is exactly where Van de
Geijn's scatter+ring beats the binomial tree, producing GridMPI's big FT
win on the grid (Fig. 10).
"""

from __future__ import annotations

from repro.mpi.constants import SUM
from repro.npb.common import (
    PROBLEM,
    per_rank_flops,
    sampled_loop,
    validate_config,
    verify_rng,
)


def make_program(cls: str, nprocs: int, sample_iters=None):
    validate_config("ft", cls, nprocs)
    params = PROBLEM["ft"][cls]
    nx, ny, nz, niter = params["nx"], params["ny"], params["nz"], params["niter"]
    slab_bytes = 16 * nx * ny * nz // nprocs
    flops_per_iter = per_rank_flops("ft", cls, nprocs) / niter

    def program(ctx):
        comm = ctx.comm
        # initial parameter broadcasts (Table 2's 1 B control messages)
        for _ in range(3):
            yield from comm.bcast(None, nbytes=1, root=0)

        def iteration(it):
            # local FFT work
            yield from ctx.compute(flops_per_iter)
            # volume redistribution, root rotating across ranks
            yield from comm.bcast(None, nbytes=slab_bytes, root=it % comm.size)
            # checksum
            yield from comm.allreduce(None, nbytes=16, op=SUM)

        yield from sampled_loop(ctx, niter, sample_iters, iteration)

    return program


def make_verify_program(nprocs: int, n: int = 32):
    """Real math: a distributed 3D FFT by slab decomposition — local 2D
    FFTs, a slab exchange (allgather, the volume redistribution), then the
    final-axis FFT — must match ``numpy.fft.fftn`` exactly."""
    import numpy as np

    rng = verify_rng("ft")
    volume = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
    expected = np.fft.fftn(volume)
    slabs = n // nprocs

    def program(ctx):
        comm, rank = ctx.comm, ctx.rank
        lo, hi = rank * slabs, (rank + 1) * slabs
        # FFT over the two local axes of my x-slabs
        local = np.fft.fft(np.fft.fft(volume[lo:hi], axis=1), axis=2)
        # redistribute so every rank can transform the remaining axis
        blocks = yield from comm.allgather(local, nbytes_each=local.nbytes)
        full = np.concatenate([np.asarray(b) for b in blocks], axis=0)
        result = np.fft.fft(full, axis=0)
        ok = np.allclose(result, expected, atol=1e-9)
        # checksum allreduce as in the benchmark
        checksum = yield from comm.allreduce(
            complex(result.sum()) / nprocs, nbytes=16, op=SUM
        )
        return bool(ok) and np.isclose(checksum, complex(expected.sum()))

    return program
