"""Rank-to-rank byte transport: TCP links between nodes, memcpy within one.

Every rank pair gets its own socket pair (as MPICH2/OpenMPI do per
process pair); connections are established eagerly at job start so the
measurements exclude connection setup, matching the paper's methodology
(minimum over 200 round trips / best of 5 runs).
"""

from __future__ import annotations

from repro.errors import MpiError
from repro.net.topology import Node
from repro.sim.core import Environment
from repro.sim.queues import Resource
from repro.tcp.connection import Fabric, TcpConnection, TcpOptions, _Direction

#: One-way latency and bandwidth of intra-node (shared-memory) transfers.
LOCAL_LATENCY = 1e-6
LOCAL_BANDWIDTH_BPS = 20e9  # 2.5 GB/s memcpy


class MultiStreamLink:
    """K parallel TCP connections for one rank pair (MPICH-G2 §2.1.5:
    "support for large messages using several TCP streams", the GridFTP
    technique).

    Messages at or above ``threshold`` are striped across all streams —
    each stream's congestion window ramps independently, so a
    window-limited WAN path delivers up to K times the single-stream
    throughput during slow start and after losses.  Smaller messages use
    stream 0 only (striping tiny messages would add per-stream latency).
    """

    def __init__(
        self,
        connections: list[TcpConnection],
        src_node: Node,
        threshold: int,
    ):
        if not connections:
            raise MpiError("multi-stream link needs at least one connection")
        self._directions = [c.direction(src_node) for c in connections]
        self.threshold = threshold
        self.inter_site = self._directions[0].inter_site

    def transmit(self, nbytes: int):
        if nbytes < self.threshold or len(self._directions) == 1:
            arrival = yield from self._directions[0].transmit(nbytes)
            return arrival
        env = self._directions[0].env
        k = len(self._directions)
        base, rem = divmod(int(nbytes), k)
        chunks = [base + (1 if i < rem else 0) for i in range(k)]
        procs = [
            env.process(d.transmit(chunk), name="stripe")
            for d, chunk in zip(self._directions, chunks)
            if chunk > 0
        ]
        from repro.sim.sync import AllOf

        results = yield AllOf(env, procs)
        return max(results.values())


class FabricLink:
    """Intra-cluster link over the high-speed fabric (Myrinet/Infiniband).

    No TCP: hardware flow control, source routing — a fluid flow over the
    two fabric ports plus half the fabric's wire RTT and a small host
    overhead.  Used when the MPI implementation supports the fabric
    natively (MPICH-Madeleine's raison d'être, §2.1.2; exercised by the
    paper's §5 heterogeneity future work).
    """

    inter_site = False
    HOST_OVERHEAD = 3e-6  # one-way host/NIC processing

    def __init__(self, fluid, src_node: Node, dst_node: Node):
        if src_node.fabric_tx is None or dst_node.fabric_rx is None:
            raise MpiError(
                f"no high-speed fabric between {src_node.name} and {dst_node.name}"
            )
        self._fluid = fluid
        self._pipes = (src_node.fabric_tx, dst_node.fabric_rx)
        self._one_way = src_node.cluster.fabric_rtt / 2.0
        self._name = f"fabric:{src_node.name}->{dst_node.name}"
        self._lock = Resource(fluid.env, capacity=1)

    def transmit(self, nbytes: int):
        grant = self._lock.request()
        if not grant.processed:
            yield grant
        try:
            flow = self._fluid.start_flow(self._name, self._pipes, nbytes)
            yield flow.done
            return self._fluid.env.now + self._one_way + self.HOST_OVERHEAD
        finally:
            self._lock.release(grant)


class LocalLink:
    """Two ranks on the same node: a serialised memcpy."""

    inter_site = False

    def __init__(self, env: Environment):
        self.env = env
        self._lock = Resource(env, capacity=1)

    def transmit(self, nbytes: int):
        grant = self._lock.request()
        if not grant.processed:
            yield grant
        try:
            yield self.env.timeout(LOCAL_LATENCY + nbytes * 8.0 / LOCAL_BANDWIDTH_BPS)
            return self.env.now
        finally:
            self._lock.release(grant)


#: What :meth:`Transport.link` hands out for one direction of a rank pair:
#: each has ``inter_site`` and a ``transmit(nbytes)`` generator that returns
#: the receiver's arrival time.  A single TCP connection is used directly.
RankLink = LocalLink | FabricLink | MultiStreamLink | _Direction


class Transport:
    """Caches one transport link per ordered rank pair.

    ``parallel_streams``/``stream_threshold`` enable MPICH-G2-style
    striping of large inter-site messages over several sockets.
    """

    def __init__(
        self,
        fabric: Fabric,
        placement: list[Node],
        tcp_options: TcpOptions,
        parallel_streams: int = 1,
        stream_threshold: int = 0,
        native_fabrics: frozenset = frozenset(),
    ):
        if not placement:
            raise MpiError("empty placement")
        if parallel_streams < 1:
            raise MpiError("parallel_streams must be >= 1")
        self.fabric = fabric
        self.placement = placement
        self.tcp_options = tcp_options
        self.parallel_streams = parallel_streams
        self.stream_threshold = stream_threshold
        #: fabrics the implementation drives natively (intra-cluster)
        self.native_fabrics = frozenset(native_fabrics)
        self._connections: dict[frozenset, "TcpConnection | list[TcpConnection]"] = {}
        self._links: dict[tuple[int, int], RankLink] = {}

    @property
    def nprocs(self) -> int:
        return len(self.placement)

    def node_of(self, rank: int) -> Node:
        try:
            return self.placement[rank]
        except IndexError:
            raise MpiError(f"rank {rank} out of range (nprocs={self.nprocs})") from None

    def link(self, src_rank: int, dst_rank: int) -> RankLink:
        """The directional link from ``src_rank`` to ``dst_rank``."""
        if src_rank == dst_rank:
            raise MpiError(f"rank {src_rank} sending to itself through the transport")
        key = (src_rank, dst_rank)
        link = self._links.get(key)
        if link is not None:
            return link
        src, dst = self.node_of(src_rank), self.node_of(dst_rank)
        if src is dst:
            link = LocalLink(self.fabric.env)
        elif (
            src.cluster is dst.cluster
            and src.cluster.fabric in self.native_fabrics
            and src.fabric_tx is not None
        ):
            link = FabricLink(self.fabric.fluid, src, dst)
        else:
            pair = frozenset(key)
            conns = self._connections.get(pair)
            inter_site = src.cluster is not dst.cluster
            want_streams = self.parallel_streams if inter_site else 1
            if conns is None:
                conns = [
                    self.fabric.connect(src, dst, self.tcp_options)
                    for _ in range(want_streams)
                ]
                self._connections[pair] = conns
            if len(conns) > 1:
                link = MultiStreamLink(conns, src, self.stream_threshold)
            else:
                link = conns[0].direction(src)
        self._links[key] = link
        return link
