"""The NAS Parallel Benchmarks (NPB 2.4) as simulation workloads.

Each benchmark module provides

``make_program(cls, nprocs, sample_iters=None)``
    the *timing skeleton*: the benchmark's real communication schedule
    (process grid, neighbours, message sizes and counts per iteration,
    collective choices) with computation charged from calibrated
    per-class operation counts.  ``sample_iters`` simulates only that
    many iterations and extrapolates the rest — statistically identical
    steady-state iterations make this accurate and it keeps class-B LU
    (1.2M messages) tractable.

``make_verify_program(nprocs)``
    a small *verification kernel* that pushes real numpy data through the
    same communication pattern and checks numerical ground truth —
    evidence that the skeleton's dataflow (dependencies, neighbours,
    collectives) is the real one.

The suite runner (:mod:`repro.npb.suite`) mirrors the paper's
methodology: one run per configuration (the simulator is deterministic),
MPICH-Madeleine's BT/SP failure reported as an infinite time, and traced
traffic for Table 2.
"""

from repro.npb.common import (
    BENCHMARK_NAMES,
    CLASS_NAMES,
    COMM_TYPE,
    FLOP_COUNTS,
    validate_config,
)
from repro.npb.suite import NpbResult, get_benchmark, run_npb

__all__ = [
    "BENCHMARK_NAMES",
    "CLASS_NAMES",
    "COMM_TYPE",
    "FLOP_COUNTS",
    "NpbResult",
    "get_benchmark",
    "run_npb",
    "validate_config",
]
