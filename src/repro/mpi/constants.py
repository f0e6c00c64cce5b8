"""MPI constants and reduction operations.

Reduction operations work on ``None`` (size-only timing runs), scalars and
numpy arrays alike, so the same collective code drives both the timing
skeletons and the numerical verification kernels.  An operand can only be an
array once numpy is loaded, so the scalar path never imports it.
"""

from __future__ import annotations

import sys
from typing import Any, Callable

#: wildcard source for receives
ANY_SOURCE = -1
#: wildcard tag for receives
ANY_TAG = -1

#: tag namespace reserved for collective operations (user tags must be >= 0)
COLLECTIVE_CONTEXT = "coll"
POINT_TO_POINT_CONTEXT = "p2p"


class ReduceOp:
    """A named, associative, commutative reduction."""

    def __init__(self, name: str, fn: Callable[[Any, Any], Any]):
        self.name = name
        self._fn = fn

    def __call__(self, a: Any, b: Any) -> Any:
        if a is None:
            return None if b is None else b
        if b is None:
            return a
        return self._fn(a, b)

    def __repr__(self) -> str:
        return f"ReduceOp({self.name})"


def _pairwise(ufunc: str, py_fn):
    """``numpy.<ufunc>`` when either operand is an array, else ``py_fn``."""

    def fn(a, b):
        np = sys.modules.get("numpy")
        if np is not None and (isinstance(a, np.ndarray) or isinstance(b, np.ndarray)):
            return getattr(np, ufunc)(a, b)
        return py_fn(a, b)

    return fn


SUM = ReduceOp("sum", _pairwise("add", lambda a, b: a + b))
PROD = ReduceOp("prod", _pairwise("multiply", lambda a, b: a * b))
MAX = ReduceOp("max", _pairwise("maximum", max))
MIN = ReduceOp("min", _pairwise("minimum", min))
LAND = ReduceOp("land", _pairwise("logical_and", lambda a, b: bool(a) and bool(b)))
LOR = ReduceOp("lor", _pairwise("logical_or", lambda a, b: bool(a) or bool(b)))
BAND = ReduceOp("band", _pairwise("bitwise_and", lambda a, b: a & b))
BOR = ReduceOp("bor", _pairwise("bitwise_or", lambda a, b: a | b))
