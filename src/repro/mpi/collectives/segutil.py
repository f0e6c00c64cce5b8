"""Payload segmentation helpers for segment-based collective algorithms.

Three payload regimes flow through the collectives:

* ``None`` — timing-only runs: all that moves is byte counts.
* ``numpy.ndarray`` — verification runs: arrays are genuinely split,
  reduced and reassembled so tests can check numerical correctness.
* anything else (opaque) — carried whole; segment-based algorithms either
  carry the whole object per segment (broadcast-like, harmless) or refuse
  (reduction-scatter, where splitting is semantically required).

A payload can only be an array once numpy is loaded, so :func:`is_array`
reads ``sys.modules`` instead of importing it, and the other two regimes run
without numpy.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, Any, Optional

from repro.errors import MpiError

if TYPE_CHECKING:
    import numpy as np


def chunk_sizes(nbytes: int, parts: int) -> list[int]:
    """Split ``nbytes`` into ``parts`` balanced non-negative chunks."""
    if parts <= 0:
        raise MpiError(f"cannot split into {parts} parts")
    base, rem = divmod(int(nbytes), parts)
    return [base + (1 if i < rem else 0) for i in range(parts)]


def split_array(arr: Optional[np.ndarray], parts: int) -> Optional[list]:
    """Split an array into ``parts`` balanced 1-D segments (None-safe)."""
    if arr is None:
        return None
    import numpy as np

    flat = np.asarray(arr).reshape(-1)
    return np.array_split(flat, parts)


def join_array(segments: list, shape) -> np.ndarray:
    """Reassemble segments produced by :func:`split_array`."""
    import numpy as np

    return np.concatenate([np.asarray(s).reshape(-1) for s in segments]).reshape(shape)


def is_array(payload: Any) -> bool:
    np = sys.modules.get("numpy")
    return np is not None and isinstance(payload, np.ndarray)


def payload_shape(payload: Any):
    return payload.shape if is_array(payload) else None
