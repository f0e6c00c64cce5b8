"""A message-passing library running on the simulated grid.

Semantically this is a (subset of an) MPI implementation written from
scratch: tag/source matching with wildcards and the non-overtaking rule,
an eager/rendezvous point-to-point protocol over the TCP model, the
collective algorithms the experiments select (binomial, Van de Geijn,
recursive doubling, Rabenseifner, ring, pairwise, dissemination and the
site-hierarchical variants), and a runtime that places ranks on
nodes and runs SPMD generator programs to completion.

The behavioural differences between MPICH2, GridMPI, MPICH-Madeleine and
OpenMPI are *configuration* of this engine — see :mod:`repro.impls`.
"""

from repro.mpi.constants import (
    ANY_SOURCE,
    ANY_TAG,
    BAND,
    BOR,
    LAND,
    LOR,
    MAX,
    MIN,
    PROD,
    SUM,
)
from repro.mpi.message import Envelope, Status
from repro.mpi.request import Request
from repro.mpi.runtime import JobResult, MpiJob, RankContext
from repro.mpi.tracing import MessageTrace, TrafficSummary

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "BAND",
    "BOR",
    "Envelope",
    "JobResult",
    "LAND",
    "LOR",
    "MAX",
    "MIN",
    "MessageTrace",
    "MpiJob",
    "PROD",
    "RankContext",
    "Request",
    "SUM",
    "Status",
    "TrafficSummary",
]
