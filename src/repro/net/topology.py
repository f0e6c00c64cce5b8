"""Topology: nodes, clusters (sites) and the inter-site WAN.

The model mirrors the paper's testbed (Fig. 2): each node has a full-duplex
NIC (two pipes: tx and rx); each cluster hangs off a non-blocking switch
with a full-duplex WAN access link; sites are joined by a core treated as
non-blocking (RENATER was a dedicated 1/10 Gbps backbone).  A route is the
ordered pipe list a flow crosses plus the one-way propagation delay.

Intra-cluster routes cross only the two NICs (non-blocking switch);
inter-site routes add the two site access pipes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.errors import NetworkConfigError
from repro.net.fluid import Pipe
from repro.units import Gbps, usec


@dataclass(frozen=True)
class Route:
    """The path a flow takes: capacity pipes + one-way propagation delay."""

    pipes: tuple[Pipe, ...]
    one_way_delay: float
    inter_site: bool

    @property
    def rtt(self) -> float:
        return 2.0 * self.one_way_delay

    @property
    def bottleneck_bps(self) -> float:
        return min(p.capacity_bps for p in self.pipes)


class Node:
    """A compute host: CPU speed plus a full-duplex NIC."""

    def __init__(
        self,
        name: str,
        cluster: "Cluster",
        nic_bps: float = Gbps(1),
        gflops: float = 1.0,
    ):
        if gflops <= 0:
            raise NetworkConfigError(f"node {name!r}: gflops must be positive")
        self.name = name
        self.cluster = cluster
        self.nic_bps = float(nic_bps)
        #: effective application-visible compute rate (not peak), used by the
        #: workload cost models.
        self.gflops = float(gflops)
        self.nic_tx = Pipe(f"{name}.tx", nic_bps)
        self.nic_rx = Pipe(f"{name}.rx", nic_bps)

    @property
    def flops(self) -> float:
        return self.gflops * 1e9

    def compute_seconds(self, flop: float) -> float:
        """Virtual time needed to execute ``flop`` floating point operations."""
        return flop / self.flops

    def __repr__(self) -> str:
        return f"Node({self.name!r}, {self.gflops:.2f} Gflop/s)"


class Cluster:
    """A site: a set of nodes behind a non-blocking switch + WAN access."""

    def __init__(
        self,
        name: str,
        wan_access_bps: float = Gbps(1),
        intra_rtt: float = usec(41),
    ):
        self.name = name
        self.nodes: list[Node] = []
        self.uplink = Pipe(f"{name}.uplink", wan_access_bps)
        self.downlink = Pipe(f"{name}.downlink", wan_access_bps)
        #: round-trip time between two nodes of this cluster (the paper
        #: measures 41 us for raw TCP on GbE).
        self.intra_rtt = float(intra_rtt)

    def add_nodes(
        self, count: int, nic_bps: float = Gbps(1), gflops: float = 1.0
    ) -> list[Node]:
        start = len(self.nodes)
        created = [
            Node(f"{self.name}-{start + i}", self, nic_bps=nic_bps, gflops=gflops)
            for i in range(count)
        ]
        self.nodes.extend(created)
        return created

    def __repr__(self) -> str:
        return f"Cluster({self.name!r}, {len(self.nodes)} nodes)"


class Network:
    """A set of clusters plus the inter-site RTT matrix."""

    def __init__(self, name: str = "net"):
        self.name = name
        self.clusters: dict[str, Cluster] = {}
        self._rtt: dict[frozenset[str], float] = {}
        self._route_cache: dict[tuple[str, str], Route] = {}

    # -- construction ----------------------------------------------------------
    def add_cluster(
        self,
        name: str,
        wan_access_bps: float = Gbps(1),
        intra_rtt: float = usec(41),
    ) -> Cluster:
        if name in self.clusters:
            raise NetworkConfigError(f"duplicate cluster {name!r}")
        cluster = Cluster(name, wan_access_bps=wan_access_bps, intra_rtt=intra_rtt)
        self.clusters[name] = cluster
        return cluster

    def set_rtt(self, a: str, b: str, rtt_seconds: float) -> None:
        """Declare the WAN round-trip time between sites ``a`` and ``b``."""
        if a not in self.clusters or b not in self.clusters:
            raise NetworkConfigError(f"unknown cluster in RTT pair ({a!r}, {b!r})")
        if rtt_seconds <= 0:
            raise NetworkConfigError("RTT must be positive")
        self._rtt[frozenset((a, b))] = float(rtt_seconds)
        self._route_cache.clear()

    # -- queries ----------------------------------------------------------------
    @property
    def nodes(self) -> list[Node]:
        return list(itertools.chain.from_iterable(c.nodes for c in self.clusters.values()))

    def node(self, name: str) -> Node:
        for cluster in self.clusters.values():
            for node in cluster.nodes:
                if node.name == name:
                    return node
        raise NetworkConfigError(f"unknown node {name!r}")

    def rtt(self, a: "Node | str", b: "Node | str") -> float:
        """Round-trip time between two nodes (or between two sites by name)."""
        ca = a.cluster.name if isinstance(a, Node) else a
        cb = b.cluster.name if isinstance(b, Node) else b
        if ca == cb:
            return self.clusters[ca].intra_rtt
        key = frozenset((ca, cb))
        if key not in self._rtt:
            raise NetworkConfigError(f"no RTT declared between {ca!r} and {cb!r}")
        return self._rtt[key]

    def route(self, src: Node, dst: Node) -> Route:
        """The pipe path and one-way delay from ``src`` to ``dst``."""
        if src is dst:
            raise NetworkConfigError(f"route from {src.name!r} to itself")
        key = (src.name, dst.name)
        cached = self._route_cache.get(key)
        if cached is not None:
            return cached
        if src.cluster is dst.cluster:
            route = Route(
                pipes=(src.nic_tx, dst.nic_rx),
                one_way_delay=src.cluster.intra_rtt / 2.0,
                inter_site=False,
            )
        else:
            rtt = self.rtt(src, dst)
            route = Route(
                pipes=(src.nic_tx, src.cluster.uplink, dst.cluster.downlink, dst.nic_rx),
                one_way_delay=rtt / 2.0,
                inter_site=True,
            )
        self._route_cache[key] = route
        return route

    def __repr__(self) -> str:
        return f"Network({self.name!r}, clusters={sorted(self.clusters)})"
