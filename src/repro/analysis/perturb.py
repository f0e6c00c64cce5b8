"""Schedule-perturbation sanitizer: adversarial same-timestamp reordering.

The event queue breaks ``(time, priority)`` ties by insertion order
(``seq``).  Code flagged by the SCHED rules *might* depend on that
tie-break; this module settles the question empirically.  A scenario is
re-run with :func:`repro.sim.core.tie_ranker` installing a seeded,
deterministic permutation of the tie-break key, so same-timestamp events
fire in an adversarially different (but reproducible) order.  The run
must still produce

* a byte-identical rendered result, and
* an identical *schedule projection* digest.

The projection folds, per timestamp, the sorted multiset of completed
public ``Process`` events (names not starting with ``_``).  Engine-internal
entries — private helper processes, and plain ``call_at`` callbacks such
as ``Protocol._at``'s deliveries or a fluid network's completion timer —
are excluded because *how many* of them exist at a timestamp legitimately
depends on execution order (one completion callback may finish two flows
due at the same tick, or two callbacks one each), while the observable
computation must not.  The raw order-sensitive
:class:`~repro.sim.core.EventTraceHasher` digest is expected to differ
under perturbation; byte-identical *results* with a stable projection are
the contract the goldens rely on.

Exposed as ``repro sanitize --perturb``; the CI smoke runs it on ``fig7``
and ``faults_pingpong`` and diffs the emitted result text against the
tracked goldens.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.errors import ExperimentError
from repro.analysis.sanitizer import _resolve_runner
from repro.sim.core import tie_ranker, trace_capture

__all__ = [
    "PerturbReport",
    "PerturbRun",
    "ScheduleProjection",
    "perturbation_ranker",
    "perturb",
]

_MASK64 = 0xFFFFFFFFFFFFFFFF


class _Lcg:
    """Deterministic 64-bit LCG (Knuth MMIX constants), host-independent."""

    def __init__(self, seed: int):
        self.state = ((seed ^ 0x9E3779B97F4A7C15) & _MASK64) or 1

    def next32(self) -> int:
        self.state = (self.state * 6364136223846793005 + 1442695040888963407) & _MASK64
        return self.state >> 32


def perturbation_ranker(seed: int) -> Callable[[int], int]:
    """A tie-break key permutation for :func:`repro.sim.core.tie_ranker`.

    Each scheduled event gets a pseudo-random 32-bit rank in the high
    word, so same-``(time, priority)`` events pop in seeded-random order;
    the original sequence number stays in the low word as a final
    deterministic tie-break, keeping the whole run reproducible.
    """
    lcg = _Lcg(seed)

    def rank(seq: int) -> int:
        return (lcg.next32() << 32) | (seq & 0xFFFFFFFF)

    return rank


class ScheduleProjection:
    """Order-insensitive-within-timestamp digest of the public schedule.

    Installable as a trace sink (same signature as
    :class:`~repro.sim.core.EventTraceHasher`).
    Events are grouped by timestamp; each group contributes its sorted
    ``{time!r}|{name}`` lines to a running blake2b digest, so reordering
    *within* a timestamp cannot change the digest but dropping, adding or
    time-shifting a public process completion does.
    """

    def __init__(self) -> None:
        self._hash = hashlib.blake2b(digest_size=16)
        self._group_time: Optional[float] = None
        self._group: List[str] = []
        #: public process completions folded in
        self.events = 0

    def __call__(self, time: float, priority: int, seq: int, event: object) -> None:
        if type(event).__name__ != "Process":
            return
        name = getattr(event, "name", "") or ""
        if not name or name.startswith("_"):
            return
        # Exact inequality is correct here: grouping is by *identical* heap
        # keys (same-timestamp ties), not by approximate simulation time.
        if self._group_time is not None and time != self._group_time:  # repro: noqa=UNIT003
            self._flush()
        self._group_time = time
        self._group.append(f"{time!r}|{name}\n")
        self.events += 1

    def _flush(self) -> None:
        for line in sorted(self._group):
            self._hash.update(line.encode("utf-8"))
        self._group.clear()

    def hexdigest(self) -> str:
        self._flush()
        return self._hash.hexdigest()


@dataclass
class PerturbRun:
    """One perturbed re-run."""

    seed: int
    projection: str
    events: int
    result_identical: bool

    @property
    def passed(self) -> bool:
        return self.result_identical


@dataclass
class PerturbReport:
    """Outcome of a perturbation-sanitizer session."""

    experiment_id: str
    fast: bool
    baseline_projection: str = ""
    baseline_events: int = 0
    result_text: str = ""
    #: when False, only rendered-result byte-identity is required; the
    #: schedule projection is reported but not gating.  For experiments
    #: whose *timing tail* legitimately depends on same-timestamp order
    #: (table6/table7's merge phase: whether a recv posted at the same
    #: instant an eager envelope arrives beats it decides an unexpected-
    #: queue copy) while every rendered number stays byte-stable.
    require_projection: bool = True
    runs: List[PerturbRun] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(
            run.result_identical
            and (
                not self.require_projection
                or run.projection == self.baseline_projection
            )
            for run in self.runs
        )

    def render(self) -> str:
        lines = [
            f"perturb {self.experiment_id} (fast={self.fast}): "
            f"baseline projection {self.baseline_projection} "
            f"({self.baseline_events} public events)"
        ]
        for run in self.runs:
            schedule_ok = run.projection == self.baseline_projection
            gating_ok = run.result_identical and (
                schedule_ok or not self.require_projection
            )
            verdict = "ok" if gating_ok else "DIVERGED"
            detail = []
            if not schedule_ok:
                detail.append(
                    f"projection {run.projection}"
                    + ("" if self.require_projection else " (not gating)")
                )
            if not run.result_identical:
                detail.append("result text differs")
            suffix = f" ({'; '.join(detail)})" if detail else ""
            lines.append(
                f"  seed {run.seed}: {run.events} public events, {verdict}{suffix}"
            )
        contract = (
            "results byte-identical under adversarial tie-breaking"
            if not self.require_projection
            else "results byte-identical under adversarial tie-breaking, "
            "schedule projection stable"
        )
        lines.append(
            f"PASS (schedule-insensitive: {contract})"
            if self.passed
            else "FAIL (behaviour depends on same-timestamp event ordering)"
        )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "experiment_id": self.experiment_id,
            "fast": self.fast,
            "baseline_projection": self.baseline_projection,
            "baseline_events": self.baseline_events,
            "require_projection": self.require_projection,
            "passed": self.passed,
            "runs": [
                {
                    "seed": run.seed,
                    "projection": run.projection,
                    "events": run.events,
                    "result_identical": run.result_identical,
                }
                for run in self.runs
            ],
        }


def _run_projected(
    runner: Callable, fast: bool, ranker: Optional[Callable[[int], int]]
) -> "tuple[str, int, str]":
    projection = ScheduleProjection()
    with trace_capture(hasher=projection), tie_ranker(ranker):
        result = runner(fast=fast)
    text = getattr(result, "text", repr(result))
    return projection.hexdigest(), projection.events, text


def perturb(
    experiment: "str | Callable",
    fast: bool = True,
    seeds: Sequence[int] = (1, 2, 3),
    require_projection: bool = True,
) -> PerturbReport:
    """Run ``experiment`` unperturbed, then once per seed with permuted
    same-timestamp ordering; compare projections and rendered results.

    ``require_projection=False`` relaxes the gate to rendered-result
    byte-identity only (see :attr:`PerturbReport.require_projection`).
    """
    if not seeds:
        raise ExperimentError("perturb needs at least one seed")
    experiment_id, runner = _resolve_runner(experiment)
    report = PerturbReport(
        experiment_id=experiment_id, fast=fast, require_projection=require_projection
    )
    report.baseline_projection, report.baseline_events, report.result_text = (
        _run_projected(runner, fast, None)
    )
    for seed in seeds:
        projection, events, text = _run_projected(
            runner, fast, perturbation_ranker(seed)
        )
        report.runs.append(
            PerturbRun(
                seed=seed,
                projection=projection,
                events=events,
                result_identical=(text == report.result_text),
            )
        )
    return report
