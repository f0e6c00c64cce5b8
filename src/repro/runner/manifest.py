"""``BENCH_experiments.json``: the campaign timing manifest.

Every runner campaign appends one entry recording its configuration
(jobs, cache state) and per-experiment timings/trace hashes, so serial
and parallel runs of the same campaign sit side by side — that is the
evidence behind the "measurably lower wall-clock" claim, and CI uploads
the file as a build artifact.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.runner.pool import CampaignResult

#: default manifest location: the repository/invocation root
DEFAULT_BENCH_PATH = Path("BENCH_experiments.json")

#: entries kept per manifest — enough history to compare runs, bounded
#: so the file never grows without limit
MAX_RUNS = 50


def campaign_entry(campaign: "CampaignResult", label: str = "") -> dict[str, Any]:
    entry: dict[str, Any] = {
        # Host-side bookkeeping of when the campaign ran; the simulation
        # itself never reads this.
        "unix_time": round(time.time(), 1),  # repro: noqa=DET002
        "label": label,
        "jobs": campaign.jobs,
        "cache_enabled": campaign.cache_enabled,
        "telemetry": campaign.telemetry_enabled,
        "wall_s": round(campaign.wall_s, 3),
        "ok": campaign.ok,
        "cached_experiments": len(campaign.cached),
        "failed_experiments": [run.experiment_id for run in campaign.failures],
        # Per-shard worker walls: the cost model's history.  Dispatch order
        # for the next campaign is seeded from these, so heavyweights
        # (fig10/fig12, the ray2mesh sites) start first.
        **({"shards": campaign.shard_walls} if campaign.shard_walls else {}),
        "cache": {
            "hits": campaign.cache_hits,
            "misses": campaign.cache_misses,
            "stores": campaign.cache_stores,
        },
        "experiments": {
            run.experiment_id: {
                "fast": run.fast,
                "ok": run.ok,
                "cached": run.cached,
                "wall_s": round(run.wall_s, 3),
                "trace_hash": run.trace_hash,
                # Span-analytics roll-up of a traced run: span count, top
                # self-tick frames, WAN site-pair totals (repro.obs).
                **({"rollup": run.rollup} if run.rollup else {}),
            }
            for run in campaign.runs
        },
    }
    return entry


def _load_document(manifest_path: Path) -> dict[str, Any]:
    try:
        document = json.loads(manifest_path.read_text(encoding="utf-8"))
        if not isinstance(document, dict) or "runs" not in document:
            document = {"schema": 1, "runs": []}
    except (OSError, ValueError):
        document = {"schema": 1, "runs": []}
    return document


def _write_document(manifest_path: Path, document: dict[str, Any]) -> Path:
    manifest_path.parent.mkdir(parents=True, exist_ok=True)
    # Write-then-rename, matching the cache: a concurrent reader (or a
    # crash mid-write) never sees a torn manifest.
    tmp = manifest_path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    os.replace(tmp, manifest_path)
    return manifest_path


def record_campaign(
    campaign: "CampaignResult",
    path: "Path | str | None" = None,
    label: str = "",
) -> Path:
    """Append the campaign to the manifest (kept to ``MAX_RUNS`` entries)."""
    manifest_path = Path(path) if path is not None else DEFAULT_BENCH_PATH
    document = _load_document(manifest_path)
    document["runs"] = (document["runs"] + [campaign_entry(campaign, label)])[-MAX_RUNS:]
    return _write_document(manifest_path, document)


def load_task_estimates(path: "Path | str | None" = None) -> dict[str, float]:
    """Historical wall seconds per task, for the cost-model scheduler.

    Keys are shard ``task_id``s, read from entries' ``shards`` maps (an
    experiment that defines ``run`` is the shard ``experiment/<id>``).
    Entries are folded oldest to newest so the latest observation wins.
    Estimates are deliberately mode-agnostic (fast and full walls share a
    key): the scheduler only needs relative order within one campaign,
    and a campaign runs in one mode.  A missing or torn manifest returns
    ``{}`` — scheduling degrades to deterministic label order.
    """
    manifest_path = Path(path) if path is not None else DEFAULT_BENCH_PATH
    estimates: dict[str, float] = {}
    for entry in _load_document(manifest_path).get("runs", []):
        if not isinstance(entry, dict):
            continue
        for task_id, wall in (entry.get("shards") or {}).items():
            if isinstance(wall, (int, float)) and wall >= 0:
                estimates[task_id] = float(wall)
    return estimates


#: hotspot tables kept per manifest, newest wins per (experiment, fast)
MAX_PROFILES = 40


def record_profile(
    experiment_id: str,
    fast: bool,
    rows: list[dict[str, Any]],
    wall_s: float,
    path: "Path | str | None" = None,
) -> Path:
    """Record a ``repro profile`` hotspot table into the manifest.

    Profiles live under ``document["profiles"]`` keyed by
    ``<experiment>|fast=<bool>`` so fast and paper-scale profiles sit side
    by side; CI uploads the manifest, making hotspot drift reviewable the
    same way campaign walls are.
    """
    manifest_path = Path(path) if path is not None else DEFAULT_BENCH_PATH
    document = _load_document(manifest_path)
    profiles = document.setdefault("profiles", {})
    if not isinstance(profiles, dict):
        profiles = document["profiles"] = {}
    profiles[f"{experiment_id}|fast={fast}"] = {
        # Host-side bookkeeping, like campaign entries' unix_time.
        "unix_time": round(time.time(), 1),  # repro: noqa=DET002
        "experiment_id": experiment_id,
        "fast": fast,
        "wall_s": round(wall_s, 3),
        "top": rows,
    }
    while len(profiles) > MAX_PROFILES:
        oldest = min(profiles, key=lambda key: profiles[key].get("unix_time", 0.0))
        del profiles[oldest]
    return _write_document(manifest_path, document)
