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


class LocalLink:
    """Two ranks on the same node: a serialised memcpy."""

    inter_site = False

    def __init__(self, env: Environment):
        self.env = env
        self._lock = Resource(env)

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
#: the receiver's arrival time.  A TCP connection's direction is used directly.
RankLink = LocalLink | _Direction


class Transport:
    """Caches one transport link per ordered rank pair."""

    def __init__(self, fabric: Fabric, placement: list[Node], tcp_options: TcpOptions):
        if not placement:
            raise MpiError("empty placement")
        self.fabric = fabric
        self.placement = placement
        self.tcp_options = tcp_options
        self._connections: dict[frozenset, TcpConnection] = {}
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
        else:
            pair = frozenset(key)
            conn = self._connections.get(pair)
            if conn is None:
                conn = self.fabric.connect(src, dst, self.tcp_options)
                self._connections[pair] = conn
            link = conn.direction(src)
        self._links[key] = link
        return link
