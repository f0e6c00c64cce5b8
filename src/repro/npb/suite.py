"""NPB suite runner: the paper's methodology around the eight kernels.

The paper executes each NPB five times and keeps the best time (§4.3);
our simulator is deterministic, so one run is the result.  MPICH-Madeleine's
BT and SP runs hit an application timeout in the paper, with no published
root cause.  The implementation model lists them in ``impl.known_failures``
and :func:`run_npb` reports them as ``time=inf, timed_out=True`` without
simulating anything: the model records the fact rather than inventing a
mechanism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import WorkloadError
from repro.mpi.runtime import MpiJob
from repro.mpi.tracing import MessageTrace
from repro.net.topology import Network, Node
from repro.npb import cg, ep, ft, is_, lu, mg, spbt
from repro.npb.common import DEFAULT_SAMPLE_ITERS, validate_config

_FACTORIES: dict[str, Callable] = {
    "ep": ep.make_program,
    "cg": cg.make_program,
    "mg": mg.make_program,
    "lu": lu.make_program,
    "sp": spbt.make_sp_program,
    "bt": spbt.make_bt_program,
    "is": is_.make_program,
    "ft": ft.make_program,
}

_VERIFIERS: dict[str, Callable] = {
    "ep": ep.make_verify_program,
    "cg": cg.make_verify_program,
    "mg": mg.make_verify_program,
    "lu": lu.make_verify_program,
    "sp": spbt.make_verify_program,
    "bt": spbt.make_verify_program,
    "is": is_.make_verify_program,
    "ft": ft.make_verify_program,
}


def get_benchmark(name: str) -> Callable:
    """The timing-program factory for a benchmark name."""
    try:
        return _FACTORIES[name.lower()]
    except KeyError:
        raise WorkloadError(f"unknown NPB benchmark {name!r}") from None


def get_verifier(name: str) -> Callable:
    try:
        return _VERIFIERS[name.lower()]
    except KeyError:
        raise WorkloadError(f"unknown NPB benchmark {name!r}") from None


@dataclass
class NpbResult:
    """Outcome of one benchmark execution."""

    name: str
    cls: str
    nprocs: int
    impl_name: str
    time: float  # virtual seconds; inf for a known failure
    timed_out: bool
    trace: Optional[MessageTrace]

    @property
    def completed(self) -> bool:
        return math.isfinite(self.time)


def run_npb(
    name: str,
    cls: str,
    network: Network,
    impl,
    placement: list[Node],
    sysctls=None,
    sample_iters: "int | None | str" = "default",
    honor_known_failures: bool = True,
    seed: int = 0,
    trace: bool = False,
) -> NpbResult:
    """Run one NPB kernel on the given testbed and implementation."""
    name = name.lower()
    nprocs = len(placement)
    validate_config(name, cls, nprocs)

    if honor_known_failures and name in impl.known_failures:
        return NpbResult(name, cls, nprocs, impl.name, math.inf, True, None)

    if sample_iters == "default":
        sample_iters = DEFAULT_SAMPLE_ITERS[name]
    program = get_benchmark(name)(cls, nprocs, sample_iters=sample_iters)
    job = MpiJob(network, impl, placement, sysctls=sysctls, trace=trace, seed=seed)
    result = job.run(program)
    return NpbResult(
        name, cls, nprocs, impl.name, result.makespan, False,
        result.trace if trace else None,
    )
