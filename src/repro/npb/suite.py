"""NPB suite runner: the paper's methodology around the eight kernels.

The paper executes each NPB five times and keeps the best time (§4.3);
our simulator is deterministic so one run suffices, but ``repeats`` is
supported for runs that perturb placement or seeds.  A per-run ``timeout``
reproduces the MPICH-Madeleine BT/SP "application timeout" (encoded as
``impl.known_failures`` — the paper observed the hang, its root cause was
never published, so the model records the fact rather than inventing a
mechanism).

A known failure is no longer a silent ``inf``: :func:`run_npb` attaches a
:class:`KnownFailure` that pins the hang point.  A short telemetry probe
(the same kernel, two sampled iterations, under a *nested* span session
so the caller's telemetry is untouched) replays the communication
schedule and reports the last collective the run enters — the operation
the documented timeout cannot get past — with its algorithm and virtual
entry time.
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
from repro.obs import runtime as _obs

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


@dataclass(frozen=True)
class KnownFailure:
    """Structured record of a documented hang (§4.3).

    The paper reports MPICH-Madeleine timing out on BT and SP without a
    published root cause; this record states *where* in the communication
    schedule the timeout bites, derived from a telemetry probe rather
    than invented: the last collective the benchmark enters (and, per the
    observation, never completes)."""

    impl_name: str
    benchmark: str
    #: the collective primitive in flight at the hang point ("(none)"
    #: when the kernel issues no collectives at all)
    collective: str
    #: the algorithm the implementation model selected for it
    algorithm: str
    #: virtual seconds into the probe run when that collective is entered
    enters_at: float
    #: the probe run's full makespan (virtual seconds)
    probe_makespan: float

    def describe(self) -> str:
        if self.collective == "(none)":
            return (
                f"{self.benchmark} on {self.impl_name}: documented timeout "
                "(no collective in the schedule to pin it to)"
            )
        return (
            f"{self.benchmark} on {self.impl_name}: documented timeout; "
            f"the final {self.collective} ({self.algorithm}) entered at "
            f"t={self.enters_at:.4f}s of {self.probe_makespan:.4f}s "
            "never completes"
        )


@dataclass
class NpbResult:
    """Outcome of one benchmark execution."""

    name: str
    cls: str
    nprocs: int
    impl_name: str
    time: float  # virtual seconds; inf when timed out / known failure
    timed_out: bool
    trace: Optional[MessageTrace]
    #: set on the known-failure path: where the documented hang bites
    failure: Optional[KnownFailure] = None

    @property
    def completed(self) -> bool:
        return math.isfinite(self.time)


_failure_memo: dict[tuple, KnownFailure] = {}


def clear_memo() -> None:
    """Sanitizer hook (see ``registry.clear_memos``): force cold probes."""
    _failure_memo.clear()


def locate_known_failure(
    name: str,
    cls: str,
    network: Network,
    impl,
    placement: list[Node],
    sysctls=None,
    seed: int = 0,
) -> KnownFailure:
    """Pin a documented hang to a point in the communication schedule.

    Replays the kernel with two sampled iterations under a nested span
    session (the ambient session, if any, sees nothing) and reads back
    rank 0's collective spans; the last one entered is the hang point.
    Memoised per (benchmark, class, implementation, placement) — the
    probe is deterministic, so one replay per configuration suffices.
    """
    key = (name, cls, impl.name, tuple(node.name for node in placement))
    hit = _failure_memo.get(key)
    if hit is not None:
        return hit
    program = get_benchmark(name)(cls, len(placement), sample_iters=2)
    with _obs.session(_obs.TelemetryConfig(spans=True, metrics=False)) as sess:
        job = MpiJob(network, impl, placement, sysctls=sysctls, seed=seed)
        run = job.run(program)
        events = sess.tracks[_obs.DEFAULT_TRACK].events
    colls = [
        e
        for e in events
        if e[0] == "X" and e[4] == "mpi.collective" and e[5] == "rank0"
    ]
    if colls:
        last = max(colls, key=lambda e: e[1])
        op = last[3].removeprefix("coll.")
        algorithm = (last[6] or {}).get("algorithm", "?")
        failure = KnownFailure(
            impl.name, name, op, algorithm, last[1], run.makespan
        )
    else:
        failure = KnownFailure(
            impl.name, name, "(none)", "", run.makespan, run.makespan
        )
    _failure_memo[key] = failure
    return failure


def run_npb(
    name: str,
    cls: str,
    network: Network,
    impl,
    placement: list[Node],
    sysctls=None,
    sample_iters: "int | None | str" = "default",
    timeout: Optional[float] = None,
    honor_known_failures: bool = True,
    seed: int = 0,
    trace: bool = False,
) -> NpbResult:
    """Run one NPB kernel on the given testbed and implementation."""
    name = name.lower()
    nprocs = len(placement)
    validate_config(name, cls, nprocs)

    if honor_known_failures and name in impl.known_failures:
        failure = locate_known_failure(
            name, cls, network, impl, placement, sysctls=sysctls, seed=seed
        )
        return NpbResult(name, cls, nprocs, impl.name, math.inf, True, None, failure)

    if sample_iters == "default":
        sample_iters = DEFAULT_SAMPLE_ITERS[name]
    program = get_benchmark(name)(cls, nprocs, sample_iters=sample_iters)
    job = MpiJob(network, impl, placement, sysctls=sysctls, trace=trace, seed=seed)
    result = job.run(program, timeout=timeout)
    time = math.inf if result.timed_out else result.makespan
    return NpbResult(
        name, cls, nprocs, impl.name, time, result.timed_out, result.trace if trace else None
    )
