"""Measurement applications: the pingpong microbenchmark and ray2mesh."""

from repro.apps.pingpong import (
    PingPongCurve,
    PingPongPoint,
    StreamSample,
    mpi_pingpong,
    mpi_stream,
    tcp_pingpong,
    tcp_stream,
)
from repro.apps.ray2mesh import Ray2MeshResult, run_ray2mesh

__all__ = [
    "PingPongCurve",
    "PingPongPoint",
    "Ray2MeshResult",
    "StreamSample",
    "mpi_pingpong",
    "mpi_stream",
    "run_ray2mesh",
    "tcp_pingpong",
    "tcp_stream",
]
