"""EP — Embarrassingly Parallel.

Generates 2^m Gaussian pairs by the Marsaglia polar method and counts
them per annulus; the only communication is three tiny allreduces at the
end (the sums sx/sy and the 10-bin count table q).  Table 2: a handful of
8 B and 80 B messages — EP is the paper's "almost no communication"
yardstick (grid relative performance ≈ 1 in Fig. 12).
"""

from __future__ import annotations

from repro.mpi.constants import SUM
from repro.npb.common import per_rank_flops, validate_config, verify_rng


def make_program(cls: str, nprocs: int, sample_iters=None):
    validate_config("ep", cls, nprocs)
    flops = per_rank_flops("ep", cls, nprocs)

    def program(ctx):
        # The whole kernel: local random-pair generation and tallying.
        yield from ctx.compute(flops)
        # Global sums: sx, sy (8 B each) and the annulus counts q (10 doubles).
        yield from ctx.comm.allreduce(0.0, nbytes=8, op=SUM)
        yield from ctx.comm.allreduce(0.0, nbytes=8, op=SUM)
        yield from ctx.comm.allreduce(None, nbytes=80, op=SUM)

    return program


def make_verify_program(nprocs: int, pairs_per_rank: int = 4000):
    """Real math at small scale: each rank draws Gaussian pairs and tallies
    annulus counts; the allreduced table must equal the serial tally."""
    import numpy as np

    def serial_counts() -> np.ndarray:
        counts = np.zeros(10)
        for rank in range(nprocs):
            rng = verify_rng("ep", rank)
            x = rng.uniform(-1, 1, pairs_per_rank)
            y = rng.uniform(-1, 1, pairs_per_rank)
            t = x * x + y * y
            ok = (t <= 1.0) & (t > 0)
            gx = x[ok] * np.sqrt(-2 * np.log(t[ok]) / t[ok])
            gy = y[ok] * np.sqrt(-2 * np.log(t[ok]) / t[ok])
            bins = np.maximum(np.abs(gx), np.abs(gy)).astype(int).clip(0, 9)
            counts += np.bincount(bins, minlength=10)
        return counts

    expected = serial_counts()

    def program(ctx):
        rng = verify_rng("ep", ctx.rank)
        x = rng.uniform(-1, 1, pairs_per_rank)
        y = rng.uniform(-1, 1, pairs_per_rank)
        t = x * x + y * y
        ok = (t <= 1.0) & (t > 0)
        gx = x[ok] * np.sqrt(-2 * np.log(t[ok]) / t[ok])
        gy = y[ok] * np.sqrt(-2 * np.log(t[ok]) / t[ok])
        bins = np.maximum(np.abs(gx), np.abs(gy)).astype(int).clip(0, 9)
        counts = np.bincount(bins, minlength=10).astype(float)
        total = yield from ctx.comm.allreduce(counts, nbytes=counts.nbytes, op=SUM)
        return bool(np.array_equal(total, expected))

    return program
