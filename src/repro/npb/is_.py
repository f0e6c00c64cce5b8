"""IS — Integer Sort (bucket sort of uniform random keys).

Per iteration (10 in NPB): a small control allreduce (~1 kB), the
**key-density reduction** — the paper's Table 2 shows it as the dominant
collective, one ~30 MB (class A) message per rank per iteration
(``4 * total_keys`` bytes) — and the key redistribution ``alltoallv``.
GridMPI's bandwidth-optimal Rabenseifner allreduce halves the reduction's
volume, which is its big IS win in Fig. 10; the alltoallv is *not*
optimised ("GridMPI only optimizes one of the primitives used by IS"),
which is why IS stays poor on the grid in Fig. 12.
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

NUM_BUCKETS = 256  # histogram payload ~1 kB of int32


def make_program(cls: str, nprocs: int, sample_iters=None):
    validate_config("is", cls, nprocs)
    params = PROBLEM["is"][cls]
    niter = params["niter"]
    total_keys = 1 << params["total_keys_log2"]
    key_bytes_per_pair = max(4, 4 * total_keys // (nprocs * nprocs))
    flops_per_iter = per_rank_flops("is", cls, nprocs) / niter

    density_bytes = 4 * total_keys  # Table 2: ~30 MB per rank for class A

    def program(ctx):
        comm = ctx.comm

        def control():
            # small control histogram
            yield from comm.allreduce(None, nbytes=4 * NUM_BUCKETS, op=SUM)

        def density():
            # key-density reduction: the dominant collective (Table 2)
            yield from comm.allreduce(None, nbytes=density_bytes, op=SUM)

        def redistribute():
            # key redistribution (uniform keys: balanced alltoallv)
            sizes = [key_bytes_per_pair] * comm.size
            yield from comm.alltoallv(sizes)

        def iteration(_it):
            # local counting
            yield from phase(ctx, "compute", ctx.compute(flops_per_iter))
            yield from phase(ctx, "control", control())
            yield from phase(ctx, "density", density())
            yield from phase(ctx, "redistribute", redistribute())

        def residual():
            # full verification: ranking check via one more small allreduce
            yield from comm.allreduce(0.0, nbytes=8, op=SUM)

        yield from sampled_loop(ctx, niter, sample_iters, iteration)
        yield from phase(ctx, "residual", residual())

    return program


def make_verify_program(nprocs: int, keys_per_rank: int = 2000, max_key: int = 1 << 11):
    """A real distributed bucket sort: after the histogram allreduce and
    the alltoallv redistribution, the concatenation of per-rank sorted
    runs must equal the serial sort of all keys."""
    import numpy as np

    def all_keys():
        return np.concatenate(
            [
                verify_rng("is", r).integers(0, max_key, keys_per_rank)
                for r in range(nprocs)
            ]
        )

    expected = np.sort(all_keys())

    def program(ctx):
        comm, rank = ctx.comm, ctx.rank
        keys = verify_rng("is", rank).integers(0, max_key, keys_per_rank)
        # histogram over nprocs buckets (key range split evenly)
        edges = np.linspace(0, max_key, nprocs + 1).astype(np.int64)
        hist = np.histogram(keys, bins=edges)[0].astype(np.int64)
        yield from comm.allreduce(hist, nbytes=hist.nbytes, op=SUM)
        # split keys per destination bucket and exchange
        owners = np.digitize(keys, edges[1:-1])
        payloads = [keys[owners == d] for d in range(nprocs)]
        sizes = [4 * len(p) for p in payloads]
        received, _ = yield from comm.alltoallv(sizes, payloads)
        mine = np.sort(np.concatenate([np.asarray(r) for r in received]))
        # reassemble globally and compare with the serial sort
        blocks = yield from comm.allgather(mine, nbytes_each=mine.nbytes)
        result = np.concatenate(blocks)
        return bool(np.array_equal(result, expected))

    return program
