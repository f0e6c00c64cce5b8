"""Structured export: experiment results as JSON."""

from __future__ import annotations

import json
import math
from typing import Any

from repro.experiments.base import ExperimentResult


def _sanitise(value: Any) -> Any:
    """JSON-safe copy: inf/nan become strings, numpy scalars become floats."""
    if isinstance(value, dict):
        return {str(k): _sanitise(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitise(v) for v in value]
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return value
    if hasattr(value, "item"):  # numpy scalar
        return _sanitise(value.item())
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    return str(value)


def experiment_to_dict(result: ExperimentResult) -> dict:
    return {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "paper_ref": result.paper_ref,
        "rows": _sanitise(result.rows),
    }


def experiment_to_json(result: ExperimentResult, indent: int = 2) -> str:
    return json.dumps(experiment_to_dict(result), indent=indent)
