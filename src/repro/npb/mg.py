"""MG — MultiGrid V-cycles on a 3D grid.

The n^3 grid is decomposed across a 3D process grid; each V-cycle
descends through log2 levels, exchanging the six ghost faces at every
level (face bytes shrink 4x per level — Table 2's "various sizes from
4 B to 130 kB"), then ascends interpolating.  Periodic boundaries mean
every rank has six neighbours at every level.
"""

from __future__ import annotations

from repro.npb.common import (
    PROBLEM,
    grid_3d,
    per_rank_flops,
    phase,
    sampled_loop,
    validate_config,
    verify_rng,
)


def _neighbours(coords, dims):
    """The six (dim, direction) neighbour ranks on a periodic 3D grid."""
    px, py, pz = dims
    cx, cy, cz = coords

    def rank_of(x, y, z):
        return (x % px) * py * pz + (y % py) * pz + (z % pz)

    return [
        rank_of(cx - 1, cy, cz),
        rank_of(cx + 1, cy, cz),
        rank_of(cx, cy - 1, cz),
        rank_of(cx, cy + 1, cz),
        rank_of(cx, cy, cz - 1),
        rank_of(cx, cy, cz + 1),
    ]


def make_program(cls: str, nprocs: int, sample_iters=None):
    validate_config("mg", cls, nprocs)
    params = PROBLEM["mg"][cls]
    n, nit = params["n"], params["nit"]
    dims = grid_3d(nprocs)
    levels = max(1, n.bit_length() - 2)
    flops_per_iter = per_rank_flops("mg", cls, nprocs) / nit

    # local subgrid extents at the top level
    local = (n // dims[0], n // dims[1], n // dims[2])

    def face_bytes(level: int) -> int:
        # top level: the largest face of the local block; each level
        # halves every dimension (so faces shrink 4x).
        shrink = 2 ** (levels - 1 - level)
        fx = max(1, local[1] // shrink) * max(1, local[2] // shrink)
        fy = max(1, local[0] // shrink) * max(1, local[2] // shrink)
        fz = max(1, local[0] // shrink) * max(1, local[1] // shrink)
        return [8 * fx, 8 * fx, 8 * fy, 8 * fy, 8 * fz, 8 * fz]

    def program(ctx):
        comm, rank = ctx.comm, ctx.rank
        px, py, pz = dims
        coords = (rank // (py * pz), (rank // pz) % py, rank % pz)
        nbrs = _neighbours(coords, dims)

        def exchange(level):
            sizes = face_bytes(level)
            for axis in range(3):
                minus, plus = nbrs[2 * axis], nbrs[2 * axis + 1]
                nbytes = sizes[2 * axis]
                if minus == rank:  # periodic wrap onto self: no traffic
                    continue
                yield from comm.sendrecv(plus, nbytes, src=minus)
                yield from comm.sendrecv(minus, nbytes, src=plus)

        def exchange_down():
            # downward: residual + restriction at each level
            for level in reversed(range(levels)):
                yield from exchange(level)

        def exchange_up():
            # upward: interpolation + smoothing at each level
            for level in range(levels):
                yield from exchange(level)

        def iteration(_it):
            yield from phase(ctx, "exchange_down", exchange_down())
            yield from phase(ctx, "exchange_up", exchange_up())
            yield from phase(ctx, "compute", ctx.compute(flops_per_iter))

        def residual():
            # final L2 norm of the residual
            yield from comm.allreduce(0.0, nbytes=8)

        yield from sampled_loop(ctx, nit, sample_iters, iteration)
        yield from phase(ctx, "residual", residual())

    return program


def make_verify_program(nprocs: int, n: int = 64, iters: int = 25):
    """Real math: 1D Jacobi smoothing with halo exchange must match the
    serial computation exactly."""
    import numpy as np

    rng = verify_rng("mg")
    initial = rng.standard_normal(n)

    def serial(u0):
        u = u0.copy()
        for _ in range(iters):
            padded = np.concatenate([[0.0], u, [0.0]])
            u = 0.25 * padded[:-2] + 0.5 * padded[1:-1] + 0.25 * padded[2:]
        return u

    expected = serial(initial)
    chunk = n // nprocs

    def program(ctx):
        comm, rank = ctx.comm, ctx.rank
        lo, hi = rank * chunk, (rank + 1) * chunk
        u = initial[lo:hi].copy()
        left, right = rank - 1, rank + 1
        for _ in range(iters):
            ghost_left, ghost_right = 0.0, 0.0
            reqs = []
            if left >= 0:
                reqs.append(comm.isend(left, 8, tag=1, payload=float(u[0])))
            if right < nprocs:
                reqs.append(comm.isend(right, 8, tag=2, payload=float(u[-1])))
            if left >= 0:
                ghost_left, _ = yield from comm.recv(left, 2)
            if right < nprocs:
                ghost_right, _ = yield from comm.recv(right, 1)
            yield from comm.waitall(reqs)
            padded = np.concatenate([[ghost_left], u, [ghost_right]])
            u = 0.25 * padded[:-2] + 0.5 * padded[1:-1] + 0.25 * padded[2:]
        blocks = yield from comm.allgather(u, nbytes_each=u.nbytes)
        result = np.concatenate(blocks)
        return bool(np.allclose(result, expected, atol=1e-12))

    return program
