"""Shared NPB infrastructure: problem classes, op counts, process grids.

Operation counts are the published per-benchmark totals (in Gflop, whole
job); they set the compute/communication ratio, which is what the paper's
Figures 10-13 depend on.  Exact absolute agreement with the 2007 testbed
is not a goal (see DESIGN.md §5) — the counts below are the standard NPB
reference values rounded to three digits.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.errors import WorkloadError
from repro.obs import runtime as _obs
from repro.sim.rng import RngRegistry

if TYPE_CHECKING:
    import numpy as np

#: master seed of every verify-mode problem-data stream
NPB_VERIFY_SEED = 2007


def verify_rng(kernel: str, rank: Optional[int] = None) -> np.random.Generator:
    """A *fresh* deterministic stream for verify-mode problem data.

    Each call returns a new generator at the start of the named stream, so
    the serial reference computation and the per-rank distributed one can
    independently draw identical data — the property the verify programs'
    bit-exact comparisons rely on.  All NPB randomness goes through here
    (DET005): streams are named ``npb.<kernel>.verify[.rank<r>]`` under the
    single master seed :data:`NPB_VERIFY_SEED`.
    """
    name = f"npb.{kernel}.verify" if rank is None else f"npb.{kernel}.verify.rank{rank}"
    return RngRegistry(seed=NPB_VERIFY_SEED).stream(name)

BENCHMARK_NAMES = ("ep", "cg", "mg", "lu", "sp", "bt", "is", "ft")
CLASS_NAMES = ("S", "W", "A", "B", "C")

#: Table 2 column "Type of comm."
COMM_TYPE = {
    "ep": "P. to P.",
    "cg": "P. to P.",
    "mg": "P. to P.",
    "lu": "P. to P.",
    "sp": "P. to P.",
    "bt": "P. to P.",
    "is": "Collective",
    "ft": "Collective",
}

#: fraction of a node's calibrated flop rate each kernel sustains.
#: NPB kernels are famously memory-bound to different degrees: CG and IS
#: sustain ~10 % of nominal, the structured solvers 30-40 %.  These factors
#: put the class-B single/16-node times in the range 2007 Opteron clusters
#: actually reported and set the compute/communication ratios that Figures
#: 12 and 13 depend on.
EFFICIENCY: dict[str, float] = {
    "ep": 0.45,
    "cg": 0.12,
    "mg": 0.22,
    "lu": 0.40,
    "sp": 0.33,
    "bt": 0.40,
    "is": 0.08,
    "ft": 0.33,
}

#: total floating point work per run (Gflop), whole job.
FLOP_COUNTS: dict[str, dict[str, float]] = {
    "ep": {"S": 0.42, "W": 0.84, "A": 6.72, "B": 26.9, "C": 107.6},
    "cg": {"S": 0.066, "W": 0.39, "A": 1.51, "B": 54.9, "C": 143.3},
    "mg": {"S": 0.008, "W": 0.51, "A": 3.63, "B": 18.5, "C": 155.7},
    "lu": {"S": 0.102, "W": 9.1, "A": 64.6, "B": 119.3, "C": 479.6},
    "sp": {"S": 0.10, "W": 8.1, "A": 102.0, "B": 314.5, "C": 1253.0},
    "bt": {"S": 0.17, "W": 7.8, "A": 168.3, "B": 466.1, "C": 1825.1},
    "is": {"S": 0.003, "W": 0.05, "A": 0.78, "B": 3.30, "C": 13.2},
    "ft": {"S": 0.18, "W": 2.0, "A": 7.16, "B": 92.1, "C": 376.0},
}

#: problem geometry per class (benchmark-specific meanings, see modules).
PROBLEM = {
    "ep": {
        "S": {"m": 24}, "W": {"m": 25}, "A": {"m": 28}, "B": {"m": 30},
        "C": {"m": 32},
    },
    "cg": {
        "S": {"na": 1400, "nonzer": 7, "niter": 15},
        "W": {"na": 7000, "nonzer": 8, "niter": 15},
        "A": {"na": 14000, "nonzer": 11, "niter": 15},
        "B": {"na": 75000, "nonzer": 13, "niter": 75},
        "C": {"na": 150000, "nonzer": 15, "niter": 75},
    },
    "mg": {
        "S": {"n": 32, "nit": 4},
        "W": {"n": 128, "nit": 4},
        "A": {"n": 256, "nit": 4},
        "B": {"n": 256, "nit": 20},
        "C": {"n": 512, "nit": 20},
    },
    "lu": {
        "S": {"n": 12, "itmax": 50},
        "W": {"n": 33, "itmax": 300},
        "A": {"n": 64, "itmax": 250},
        "B": {"n": 102, "itmax": 250},
        "C": {"n": 162, "itmax": 250},
    },
    "sp": {
        "S": {"n": 12, "niter": 100},
        "W": {"n": 36, "niter": 400},
        "A": {"n": 64, "niter": 400},
        "B": {"n": 102, "niter": 400},
        "C": {"n": 162, "niter": 400},
    },
    "bt": {
        "S": {"n": 12, "niter": 60},
        "W": {"n": 24, "niter": 200},
        "A": {"n": 64, "niter": 200},
        "B": {"n": 102, "niter": 200},
        "C": {"n": 162, "niter": 200},
    },
    "is": {
        "S": {"total_keys_log2": 16, "niter": 10},
        "W": {"total_keys_log2": 20, "niter": 10},
        "A": {"total_keys_log2": 23, "niter": 10},
        "B": {"total_keys_log2": 25, "niter": 10},
        "C": {"total_keys_log2": 27, "niter": 10},
    },
    "ft": {
        "S": {"nx": 64, "ny": 64, "nz": 64, "niter": 6},
        "W": {"nx": 128, "ny": 128, "nz": 32, "niter": 6},
        "A": {"nx": 256, "ny": 256, "nz": 128, "niter": 6},
        "B": {"nx": 512, "ny": 256, "nz": 256, "niter": 20},
        "C": {"nx": 512, "ny": 512, "nz": 512, "niter": 20},
    },
}

#: default number of simulated iterations when sampling (per benchmark);
#: chosen so one class-B run stays under ~10^5 messages.
DEFAULT_SAMPLE_ITERS = {
    "ep": None,  # no iteration loop
    "cg": 5,     # outer iterations
    "mg": 5,
    "lu": 20,
    "sp": 20,
    "bt": 20,
    "is": 4,
    "ft": 5,
}


def validate_config(name: str, cls: str, nprocs: int) -> None:
    """Reject configurations the real NPB would reject."""
    if name not in BENCHMARK_NAMES:
        raise WorkloadError(f"unknown NPB benchmark {name!r}; have {BENCHMARK_NAMES}")
    if cls not in CLASS_NAMES:
        raise WorkloadError(f"unknown problem class {cls!r}; have {CLASS_NAMES}")
    if nprocs < 1:
        raise WorkloadError("nprocs must be >= 1")
    if name in ("cg", "ft", "is", "ep", "mg", "lu") and nprocs & (nprocs - 1):
        raise WorkloadError(f"{name.upper()} requires a power-of-two rank count")
    if name in ("sp", "bt"):
        root = int(round(nprocs**0.5))
        if root * root != nprocs:
            raise WorkloadError(f"{name.upper()} requires a square rank count")


def grid_2d(nprocs: int) -> tuple[int, int]:
    """Near-square 2D factorisation (rows, cols), rows >= cols."""
    rows = int(nprocs**0.5)
    while nprocs % rows:
        rows -= 1
    return max(rows, nprocs // rows), min(rows, nprocs // rows)


def grid_3d(nprocs: int) -> tuple[int, int, int]:
    """Near-cubic 3D factorisation."""
    best = (nprocs, 1, 1)
    best_score = nprocs  # max dim; smaller is better
    for a in range(1, nprocs + 1):
        if nprocs % a:
            continue
        rest = nprocs // a
        for b in range(1, rest + 1):
            if rest % b:
                continue
            c = rest // b
            dims = tuple(sorted((a, b, c), reverse=True))
            if dims[0] < best_score:
                best, best_score = dims, dims[0]
    return best


def sampled_loop(ctx, total_iters: int, sample_iters: Optional[int], body: Callable):
    """Run ``body(it)`` for a sample of the iterations, extrapolate the rest.

    ``body`` is a generator function.  With ``sample_iters`` None or >=
    ``total_iters`` every iteration runs.  Otherwise the measured mean
    iteration time stands in for the remaining ones (steady-state NPB
    iterations are statistically identical).
    """
    if total_iters < 0:
        raise WorkloadError(f"negative iteration count {total_iters}")
    n = total_iters if sample_iters is None else min(sample_iters, total_iters)
    start = ctx.wtime()
    for it in range(n):
        yield from body(it)
    remaining = total_iters - n
    if remaining > 0 and n > 0:
        elapsed = ctx.wtime() - start
        yield from ctx.compute_time(elapsed / n * remaining)


def phase(ctx, name: str, body):
    """Wrap generator ``body`` in an ``npb.phase.<name>`` span.

    Call as ``yield from phase(ctx, "transpose", transpose())``.  With
    telemetry off this returns ``body`` untouched — the caller delegates
    straight into it, no wrapper frame, no record.  With spans on, the
    phase is timed on this rank's lane; the span is recorded only when
    the body runs to completion (an abandoned generator records nothing,
    so a timed-out job never emits a partial phase).
    """
    sess = _obs.ACTIVE
    if sess is None or not sess.spans:
        return body
    return _traced_phase(ctx, name, body, sess)


def _traced_phase(ctx, name: str, body, sess):
    t_start = ctx.env.now
    result = yield from body
    sess.complete(
        t_start,
        ctx.env.now - t_start,
        f"npb.phase.{name}",
        "npb.phase",
        f"rank{ctx.rank}",
        None,
    )
    return result


def per_rank_flops(name: str, cls: str, nprocs: int) -> float:
    """Effective flop each rank must execute: the kernel's operation count
    inflated by its sustained-efficiency factor, so that charging it at
    the node's calibrated rate yields realistic kernel times."""
    return FLOP_COUNTS[name][cls] * 1e9 / nprocs / EFFICIENCY[name]
