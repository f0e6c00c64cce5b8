"""Behavioural models of the four MPI implementations the paper compares.

Each model is a frozen configuration of the generic engine in
:mod:`repro.mpi`: latency overheads (Table 4), default eager/rendezvous
threshold (Table 5), socket buffer policy (§4.2.1), TCP pacing and
burstiness (Fig. 9), collective algorithm choices (§2.1) and known failure
modes (§4.3: MPICH-Madeleine times out on BT and SP).
"""

from repro.impls.base import MpiImplementation
from repro.impls.registry import (
    ALL_IMPLEMENTATIONS,
    IMPLEMENTATION_ORDER,
    get_implementation,
)

__all__ = [
    "ALL_IMPLEMENTATIONS",
    "IMPLEMENTATION_ORDER",
    "MpiImplementation",
    "get_implementation",
]
