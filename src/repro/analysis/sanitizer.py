"""Runtime determinism sanitizer: run twice, hash the event trace, compare.

The static linter (``repro.analysis.linter``) catches *sources* of
nondeterminism it can see syntactically; this module catches the ones it
cannot (set-ordered scheduling, unseeded library internals, hidden global
state) by construction: an experiment is run ``runs`` times with identical
configuration, every processed event is folded into an
:class:`~repro.sim.core.EventTraceHasher` via the
:func:`repro.sim.core.install_trace_sink` hook, and the digests must be
bit-identical.  The rendered result is folded in as well, so value-level
divergence (same schedule, different numbers) also fails.

Exposed as ``repro sanitize <experiment>`` and used by the tier-1 suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ExperimentError
from repro.sim.core import trace_capture

__all__ = ["SanitizeReport", "sanitize", "trace_experiment"]


@dataclass
class SanitizeReport:
    """Outcome of one sanitizer run."""

    experiment_id: str
    hashes: list[str] = field(default_factory=list)
    event_counts: list[int] = field(default_factory=list)

    @property
    def deterministic(self) -> bool:
        return len(set(self.hashes)) <= 1

    def render(self) -> str:
        lines = [f"sanitize {self.experiment_id}: {len(self.hashes)} run(s)"]
        for i, (digest, count) in enumerate(zip(self.hashes, self.event_counts), start=1):
            lines.append(f"  run {i}: {count} events, trace hash {digest}")
        verdict = "PASS (trace hashes identical)" if self.deterministic else (
            "FAIL (trace hashes diverge: the experiment is not deterministic)"
        )
        lines.append(verdict)
        return "\n".join(lines)


def _resolve_runner(experiment: "str | Callable") -> tuple[str, Callable]:
    if callable(experiment):
        return getattr(experiment, "__name__", "<callable>"), experiment
    from repro.experiments import get_experiment

    return experiment, get_experiment(experiment)


def trace_experiment(
    experiment: "str | Callable", fast: bool = True
) -> tuple[str, int, object]:
    """One instrumented run: ``(trace hash, event count, result)``."""
    _, runner = _resolve_runner(experiment)
    with trace_capture() as hasher:
        result = runner(fast=fast)
    # Fold the rendered output in: same schedule + different values is
    # still a determinism failure.
    hasher.update_text(getattr(result, "text", repr(result)))
    return hasher.hexdigest(), hasher.events, result


def sanitize(
    experiment: "str | Callable",
    fast: bool = True,
    runs: int = 2,
) -> SanitizeReport:
    """Run ``experiment`` ``runs`` times and compare trace hashes."""
    if runs < 2:
        raise ExperimentError(f"sanitize needs at least 2 runs, got {runs}")
    experiment_id, _ = _resolve_runner(experiment)
    report = SanitizeReport(experiment_id=experiment_id)
    for _ in range(runs):
        digest, events, _result = trace_experiment(experiment, fast=fast)
        report.hashes.append(digest)
        report.event_counts.append(events)
    return report
