"""Telemetry exporters: Chrome trace-event JSON and metric dumps.

All exporters consume the canonical *payload* form produced by
:meth:`repro.obs.runtime.TelemetrySession.to_payload` (or
:func:`repro.obs.runtime.merge_payloads` across a run's shards) and render
byte-deterministically: tracks in sorted name order, record order within
a track, sorted JSON keys, compact separators.  Two runs of the same
experiment + seed produce identical bytes, serial or parallel — that is
what the exporter tests assert.

The Chrome trace document loads in Perfetto (https://ui.perfetto.dev) and
``chrome://tracing``: each telemetry track becomes a process, each lane
(rank, TCP connection direction, ...) a thread; spans are complete
("X") events, point events are instants ("i") and time series are
counter ("C") events.  Timestamps are virtual microseconds.
"""

from __future__ import annotations

import json
from typing import Any

#: schema version stamped into the exported documents
EXPORT_SCHEMA = 1

_ALLOWED_PHASES = {"X", "i", "C", "M"}


# --- Chrome trace ----------------------------------------------------------------
def chrome_trace(payload: dict, label: str = "") -> dict:
    """Build the Chrome trace-event document for a telemetry payload."""
    events: list[dict[str, Any]] = [
        # Document-level metadata event, emitted unconditionally: a traced
        # run that happened to record no spans (telemetry on, nothing
        # instrumented fired) still exports a *valid* non-empty document
        # instead of one Perfetto and validate_chrome_trace reject.
        {
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "ts": 0,
            "name": "trace_label",
            "args": {"producer": "repro.obs", "label": label, "schema": EXPORT_SCHEMA},
        }
    ]
    tracks = payload.get("tracks", {})
    for pid, track_name in enumerate(sorted(tracks), start=1):
        data = tracks[track_name]
        records = data.get("events", [])
        lanes = sorted({str(r[5]) for r in records})
        tids = {lane: tid for tid, lane in enumerate(lanes, start=1)}
        events.append(
            {
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "ts": 0,
                "name": "process_name",
                "args": {"name": track_name},
            }
        )
        for lane in lanes:
            events.append(
                {
                    "ph": "M",
                    "pid": pid,
                    "tid": tids[lane],
                    "ts": 0,
                    "name": "thread_name",
                    "args": {"name": lane},
                }
            )
        for record in records:
            phase, ts, dur, name, cat, lane, args = record
            event: dict[str, Any] = {
                "ph": phase,
                "pid": pid,
                "tid": tids[str(lane)],
                "ts": round(float(ts) * 1e6, 3),
                "name": name,
            }
            if phase == "X":
                event["dur"] = round(float(dur) * 1e6, 3)
                event["cat"] = cat or "span"
                if args:
                    event["args"] = args
            elif phase == "i":
                event["s"] = "t"
                event["cat"] = cat or "event"
                if args:
                    event["args"] = args
            elif phase == "C":
                event["args"] = {"value": args}
            events.append(event)
    return {
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.obs", "label": label, "schema": EXPORT_SCHEMA},
        "traceEvents": events,
    }


def render_chrome_trace(payload: dict, label: str = "") -> str:
    return json.dumps(
        chrome_trace(payload, label=label), sort_keys=True, separators=(",", ":")
    ) + "\n"


def validate_chrome_trace(document: Any) -> list[str]:
    """Schema check of a Chrome trace document; returns the violations.

    Used by the exporter tests and the CI telemetry smoke step
    (``scripts/validate_trace.py``) so a malformed trace fails loudly
    instead of silently refusing to load in Perfetto.
    """
    errors: list[str] = []
    if not isinstance(document, dict):
        return ["trace document is not a JSON object"]
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is missing or not a list"]
    if not events:
        errors.append("traceEvents is empty")
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if phase not in _ALLOWED_PHASES:
            errors.append(f"{where}: bad phase {phase!r}")
            continue
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                errors.append(f"{where}: {key} is not an integer")
        if not isinstance(event.get("ts"), (int, float)):
            errors.append(f"{where}: ts is not a number")
        if not isinstance(event.get("name"), str) or not event.get("name"):
            errors.append(f"{where}: name is missing")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"{where}: X event needs dur >= 0, got {dur!r}")
        elif phase == "C":
            args = event.get("args")
            if not isinstance(args, dict) or not all(
                isinstance(v, (int, float)) for v in args.values()
            ):
                errors.append(f"{where}: C event needs numeric args")
        elif phase == "M":
            if not isinstance(event.get("args"), dict):
                errors.append(f"{where}: M event needs args")
    return errors


# --- metric dumps ----------------------------------------------------------------
def _labels_obj(labels: list) -> dict:
    return {str(k): str(v) for k, v in labels}


def metrics_document(payload: dict, label: str = "") -> dict:
    """JSON metrics dump: per-track registries plus campaign-wide totals.

    Totals are recomputed here from the per-track entries in sorted track
    order — never from an accumulation order that could differ between a
    serial and a parallel run — so the dump is mode-independent.
    """
    tracks_out: dict[str, Any] = {}
    total_counters: dict[tuple, float] = {}
    total_hists: dict[tuple, dict[int, int]] = {}
    tracks = payload.get("tracks", {})
    for track_name in sorted(tracks):
        data = tracks[track_name]
        counters = data.get("counters", [])
        gauges = data.get("gauges", [])
        hists = data.get("histograms", [])
        if not (counters or gauges or hists):
            continue
        tracks_out[track_name] = {
            "counters": [
                {"name": n, "labels": _labels_obj(ls), "value": v}
                for n, ls, v in counters
            ],
            "gauges": [
                {"name": n, "labels": _labels_obj(ls), "value": v}
                for n, ls, v in gauges
            ],
            "histograms": [
                {
                    "name": n,
                    "labels": _labels_obj(ls),
                    "bins": [{"ge": b, "count": c} for b, c in bins],
                }
                for n, ls, bins in hists
            ],
        }
        for n, ls, v in counters:
            key = (n, tuple(tuple(p) for p in ls))
            total_counters[key] = total_counters.get(key, 0.0) + v
        for n, ls, bins in hists:
            key = (n, tuple(tuple(p) for p in ls))
            acc = total_hists.setdefault(key, {})
            for b, c in bins:
                acc[int(b)] = acc.get(int(b), 0) + int(c)
    return {
        "schema": EXPORT_SCHEMA,
        "label": label,
        "totals": {
            "counters": [
                {"name": n, "labels": _labels_obj(list(ls)), "value": total_counters[(n, ls)]}
                for n, ls in sorted(total_counters)
            ],
            "histograms": [
                {
                    "name": n,
                    "labels": _labels_obj(list(ls)),
                    "bins": [
                        {"ge": b, "count": c}
                        for b, c in sorted(total_hists[(n, ls)].items())
                    ],
                }
                for n, ls in sorted(total_hists)
            ],
        },
        "tracks": tracks_out,
    }


def render_metrics_json(payload: dict, label: str = "") -> str:
    return json.dumps(
        metrics_document(payload, label=label), sort_keys=True, indent=1
    ) + "\n"


def render_metrics_csv(payload: dict) -> str:
    """Flat CSV dump: ``track,kind,name,labels,bin,value`` (sorted rows)."""
    rows: list[tuple[str, str, str, str, str, str]] = []
    for track_name, data in payload.get("tracks", {}).items():
        for n, ls, v in data.get("counters", []):
            rows.append((track_name, "counter", n, _labels_csv(ls), "", _num(v)))
        for n, ls, v in data.get("gauges", []):
            rows.append((track_name, "gauge", n, _labels_csv(ls), "", _num(v)))
        for n, ls, bins in data.get("histograms", []):
            for b, c in bins:
                rows.append(
                    (track_name, "histogram", n, _labels_csv(ls), str(int(b)), _num(c))
                )
    lines = ["track,kind,name,labels,bin,value"]
    lines.extend(",".join(row) for row in sorted(rows))
    return "\n".join(lines) + "\n"


def _labels_csv(labels: list) -> str:
    return ";".join(f"{k}={v}" for k, v in labels)


def _num(value: Any) -> str:
    number = float(value)
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)
