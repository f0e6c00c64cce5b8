"""The paper's pingpong microbenchmark (§3.1), MPI and raw-TCP flavours.

One process ``MPI_Send``s messages of 1 B to 64 MB to a peer that
receives and echoes them; 200 round trips per size.  Following the paper,
the *minimum* round-trip per size gives the latency (Table 4) and the
*maximum* per-message goodput gives the bandwidth curves (Figs. 3, 5-7),
filtering out anything another Grid'5000 user might have perturbed.

Bandwidth is ``size / (round_trip / 2)`` throughout: the 64 MB cluster
point lands at TCP's 940 Mbps goodput (Fig. 5) and the 1 MB stream of
Fig. 9 tops out near 570 Mbps on the 11.6 ms path, both as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.mpi.runtime import MpiJob
from repro.net.topology import Network, Node
from repro.sim.core import Environment
from repro.tcp.connection import Fabric, TcpOptions
from repro.units import MB, log2_sizes

#: the paper's message size sweep (1 kB..64 MB on the bandwidth figures)
DEFAULT_SIZES = tuple(log2_sizes(1024, 64 * MB))
DEFAULT_REPEATS = 200


@dataclass(frozen=True)
class PingPongPoint:
    """Measurements at one message size."""

    nbytes: int
    min_rtt: float
    max_bandwidth_mbps: float  # size / (min_rtt / 2), in Mbit/s
    #: mean round trip over the repeats; 0.0 when unknown (points rebuilt
    #: from shard payloads that only carry the paper's min/max metrics)
    mean_rtt: float = 0.0

    @property
    def one_way_latency(self) -> float:
        return self.min_rtt / 2.0

    @property
    def mean_bandwidth_mbps(self) -> float:
        """Mean goodput, ``size / (mean_rtt / 2)``.

        The paper's bandwidth figures use the *best* round trip to filter
        out perturbations; the fault-injection sweeps use the mean, since
        the perturbation is exactly what they measure.
        """
        if self.mean_rtt <= 0.0:
            return 0.0
        return self.nbytes * 8.0 / (self.mean_rtt / 2.0) / 1e6


@dataclass
class PingPongCurve:
    """A full size sweep between one node pair."""

    label: str
    points: list[PingPongPoint]

    def bandwidth_at(self, nbytes: int) -> float:
        for point in self.points:
            if point.nbytes == nbytes:
                return point.max_bandwidth_mbps
        raise KeyError(f"no pingpong point at {nbytes} bytes")

    @property
    def max_bandwidth_mbps(self) -> float:
        return max(p.max_bandwidth_mbps for p in self.points)

    @property
    def sizes(self) -> list[int]:
        return [p.nbytes for p in self.points]


@dataclass(frozen=True)
class StreamSample:
    """One message of a fixed-size stream (Fig. 9)."""

    index: int
    time: float  # completion time of the round trip
    bandwidth_mbps: float  # size / (round_trip / 2)


def _curve_from_rtts(label: str, rtts: dict[int, list[float]]) -> PingPongCurve:
    points = []
    for nbytes, samples in sorted(rtts.items()):
        min_rtt = min(samples)
        mean_rtt = sum(samples) / len(samples)
        bw = nbytes * 8.0 / (min_rtt / 2.0) / 1e6
        points.append(PingPongPoint(nbytes, min_rtt, bw, mean_rtt))
    return PingPongCurve(label, points)


# --- MPI pingpong -----------------------------------------------------------------
def mpi_pingpong(
    network: Network,
    impl,
    node_a: Node,
    node_b: Node,
    sizes: Sequence[int] = DEFAULT_SIZES,
    repeats: int = DEFAULT_REPEATS,
    sysctls=None,
) -> PingPongCurve:
    """Run the MPI pingpong between two nodes; returns the size sweep."""
    rtts: dict[int, list[float]] = {s: [] for s in sizes}

    def program(ctx):
        comm = ctx.comm
        if ctx.rank == 0:
            for nbytes in sizes:
                for _ in range(repeats):
                    t0 = ctx.wtime()
                    yield from comm.send(1, nbytes=nbytes)
                    yield from comm.recv(1)
                    rtts[nbytes].append(ctx.wtime() - t0)
        else:
            for nbytes in sizes:
                for _ in range(repeats):
                    yield from comm.recv(0)
                    yield from comm.send(0, nbytes=nbytes)

    job = MpiJob(network, impl, [node_a, node_b], sysctls=sysctls, trace=False)
    job.run(program)
    return _curve_from_rtts(impl.display_name, rtts)


def mpi_stream(
    network: Network,
    impl,
    node_a: Node,
    node_b: Node,
    nbytes: int = MB,
    count: int = 200,
    sysctls=None,
) -> list[StreamSample]:
    """Fig. 9: a stream of fixed-size round trips, per-message bandwidth."""
    samples: list[StreamSample] = []

    def program(ctx):
        comm = ctx.comm
        if ctx.rank == 0:
            for i in range(count):
                t0 = ctx.wtime()
                yield from comm.send(1, nbytes=nbytes)
                yield from comm.recv(1)
                rtt = ctx.wtime() - t0
                samples.append(
                    StreamSample(i, ctx.wtime(), nbytes * 8.0 / (rtt / 2.0) / 1e6)
                )
        else:
            for _ in range(count):
                yield from comm.recv(0)
                yield from comm.send(0, nbytes=nbytes)

    job = MpiJob(network, impl, [node_a, node_b], sysctls=sysctls, trace=False)
    job.run(program)
    return samples


# --- raw TCP pingpong ---------------------------------------------------------------
def tcp_pingpong(
    network: Network,
    node_a: Node,
    node_b: Node,
    sizes: Sequence[int] = DEFAULT_SIZES,
    repeats: int = DEFAULT_REPEATS,
    sysctls=None,
    options: Optional[TcpOptions] = None,
) -> PingPongCurve:
    """The TCP reference curve: no MPI layer at all."""
    env = Environment()
    fabric = Fabric(env, network)
    if sysctls is not None:
        fabric.set_sysctls(sysctls)
    conn = fabric.connect(node_a, node_b, options or TcpOptions())
    rtts: dict[int, list[float]] = {s: [] for s in sizes}

    def runner():
        yield from conn.connect()
        for nbytes in sizes:
            for _ in range(repeats):
                t0 = env.now
                arrival = yield from conn.transmit(node_a, nbytes)
                yield env.timeout(max(0.0, arrival - env.now))
                arrival = yield from conn.transmit(node_b, nbytes)
                yield env.timeout(max(0.0, arrival - env.now))
                rtts[nbytes].append(env.now - t0)

    env.process(runner())
    env.run()
    return _curve_from_rtts("TCP", rtts)


def tcp_stream(
    network: Network,
    node_a: Node,
    node_b: Node,
    nbytes: int = MB,
    count: int = 200,
    sysctls=None,
    options: Optional[TcpOptions] = None,
) -> list[StreamSample]:
    """Fig. 9a: the raw-TCP stream."""
    env = Environment()
    fabric = Fabric(env, network)
    if sysctls is not None:
        fabric.set_sysctls(sysctls)
    conn = fabric.connect(node_a, node_b, options or TcpOptions())
    samples: list[StreamSample] = []

    def runner():
        yield from conn.connect()
        for i in range(count):
            t0 = env.now
            arrival = yield from conn.transmit(node_a, nbytes)
            yield env.timeout(max(0.0, arrival - env.now))
            arrival = yield from conn.transmit(node_b, nbytes)
            yield env.timeout(max(0.0, arrival - env.now))
            rtt = env.now - t0
            samples.append(StreamSample(i, env.now, nbytes * 8.0 / (rtt / 2.0) / 1e6))

    env.process(runner())
    env.run()
    return samples
