"""``repro.obs`` — full-stack simulation telemetry.

Three cooperating pieces:

:mod:`repro.obs.runtime`
    The ambient :class:`TelemetrySession`: a deterministic,
    sim-time-stamped span/event tracer plus a metrics registry
    (counters / gauges / histograms).  Zero-cost when disabled — every
    instrumentation site in the simulator is guarded by one module-global
    ``None`` check and telemetry never schedules events, so enabling it
    cannot perturb a simulation's event schedule (asserted by tests).

:mod:`repro.obs.export`
    Exporters: Chrome trace-event JSON (loadable in Perfetto / about:tracing)
    and JSON/CSV metric dumps, all byte-deterministic for a given
    experiment + seed.

:mod:`repro.obs.aggregate` / :mod:`repro.obs.flame`
    Post-hoc span analytics over merged campaign payloads: hierarchical
    span trees with self/cumulative tick accounting, collapsed-stack
    flamegraph export (text and deterministic SVG), the per-site-pair
    WAN-time matrix, and a critical-path extractor (``repro flame``).

:mod:`repro.obs.report` / :mod:`repro.obs.profile`
    Diagnosis reports (``repro explain fig7`` / ``fig9`` / ``fig10``)
    that narrate the paper's headline results from the telemetry, and a
    cProfile harness (``repro profile``) for the simulator itself.
"""

from __future__ import annotations

from repro.obs.aggregate import (
    collapsed_stacks,
    critical_path,
    frame_stats,
    site_pair_matrix,
)
from repro.obs.export import (
    chrome_trace,
    metrics_document,
    render_chrome_trace,
    render_metrics_csv,
    render_metrics_json,
    validate_chrome_trace,
)
from repro.obs.flame import render_collapsed, render_svg
from repro.obs.runtime import (
    TelemetryConfig,
    TelemetrySession,
    merge_payloads,
    session,
    track,
)

__all__ = [
    "TelemetryConfig",
    "TelemetrySession",
    "chrome_trace",
    "collapsed_stacks",
    "critical_path",
    "frame_stats",
    "merge_payloads",
    "metrics_document",
    "render_chrome_trace",
    "render_collapsed",
    "render_metrics_csv",
    "render_metrics_json",
    "render_svg",
    "session",
    "site_pair_matrix",
    "track",
    "validate_chrome_trace",
]
