"""The concrete Grid'5000 testbed of the paper, as data + builders.

Encodes:

* Table 3 (host specifications of the Rennes and Nancy clusters),
* Figure 8 (inter-site RTTs used for the ray2mesh runs),
* Figure 1/2 (1 Gbps NICs, RENATER 1/10 Gbps backbone, two clusters of up
  to 16 nodes for the pingpong/NPB experiments).

The RTT between Rennes and Nancy is 11.6 ms (paper §3.2).  Figure 8 labels
six RTTs between the four ray2mesh sites: 11.6, 14.5, 17.2, 17.8, 19.2 and
19.9 ms; the figure does not spell out every pairing, so the assignment
below follows the paper's text ("about 19 ms for the link Rennes–Sophia")
and geography for the rest.  Only the *spread* of these values matters for
the reproduced results.

Effective compute rates are calibrated, not measured: a 2007 Opteron at
2.0–2.2 GHz sustains roughly half a flop per cycle on the NAS kernels, so
``gflops = 0.5 * clock_GHz``.  Sophia's cluster is modelled faster (the
paper orders clusters Nancy < Rennes, Toulouse < Sophia and Sophia computes
~24 % more rays in Table 6).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import NetworkConfigError
from repro.net.topology import Cluster, Network
from repro.units import Gbps, msec, usec


@dataclass(frozen=True)
class HostSpec:
    """One row of the paper's Table 3 (plus the calibrated compute rate)."""

    site: str
    processor: str
    clock_ghz: float
    motherboard: str
    memory_gb: int
    nic: str
    os: str
    kernel: str
    tcp: str
    gflops: float


#: Table 3 of the paper, extended with Sophia/Toulouse (used in §4.4) whose
#: hardware the paper does not detail; their clock rates are chosen to match
#: the cluster ordering and the Table 6 ray ratios.
HOST_SPECS: dict[str, HostSpec] = {
    "rennes": HostSpec(
        site="rennes",
        processor="AMD Opteron 248",
        clock_ghz=2.2,
        motherboard="Sun Fire V20z",
        memory_gb=2,
        nic="1Gbps Eth",
        os="Debian",
        kernel="2.6.18",
        tcp="BIC + Sack",
        gflops=1.10,
    ),
    "nancy": HostSpec(
        site="nancy",
        processor="AMD Opteron 246",
        clock_ghz=2.0,
        motherboard="HP ProLiant DL145G2",
        memory_gb=2,
        nic="1Gbps Eth",
        os="Debian",
        kernel="2.6.18",
        tcp="BIC + Sack",
        gflops=1.00,
    ),
    "toulouse": HostSpec(
        site="toulouse",
        processor="AMD Opteron (ray2mesh site)",
        clock_ghz=2.2,
        motherboard="unspecified",
        memory_gb=2,
        nic="1Gbps Eth",
        os="Debian",
        kernel="2.6.18",
        tcp="BIC + Sack",
        gflops=1.06,
    ),
    "sophia": HostSpec(
        site="sophia",
        processor="AMD Opteron (ray2mesh site)",
        clock_ghz=2.6,
        motherboard="unspecified",
        memory_gb=2,
        nic="1Gbps Eth",
        os="Debian",
        kernel="2.6.18",
        tcp="BIC + Sack",
        gflops=1.30,
    ),
}

#: Inter-site RTTs in milliseconds (Fig. 8 values; see module docstring for
#: the pairing rationale).
GRID5000_RTT_MS: dict[frozenset, float] = {
    frozenset(("rennes", "nancy")): 11.6,
    frozenset(("rennes", "sophia")): 19.2,
    frozenset(("rennes", "toulouse")): 17.2,
    frozenset(("nancy", "sophia")): 19.9,
    frozenset(("nancy", "toulouse")): 17.8,
    frozenset(("toulouse", "sophia")): 14.5,
}

#: Intra-cluster *wire* RTT.  The paper's Table 4 measures 41 us of one-way
#: raw-TCP latency inside the Rennes cluster; with the calibrated 12 us
#: one-way TCP stack crossing (see :mod:`repro.tcp.connection`) that leaves
#: 29 us of one-way wire latency, i.e. a 58 us wire RTT.
INTRA_CLUSTER_RTT = usec(58)


def _add_site(net: Network, site: str, nodes: int, wan_access_bps: float) -> Cluster:
    spec = HOST_SPECS.get(site)
    gflops = spec.gflops if spec else 1.0
    cluster = net.add_cluster(
        site, wan_access_bps=wan_access_bps, intra_rtt=INTRA_CLUSTER_RTT
    )
    cluster.add_nodes(nodes, nic_bps=Gbps(1), gflops=gflops)
    return cluster


def build_pair_testbed(
    nodes_per_site: int = 8,
    sites: tuple[str, str] = ("rennes", "nancy"),
    wan_access_bps: float = Gbps(1),
) -> Network:
    """The two-cluster testbed of Fig. 2 (pingpong and NPB experiments).

    By default: ``nodes_per_site`` hosts in Rennes and Nancy, 1 Gbps NICs,
    RTT 11.6 ms across the WAN.  Note the paper also runs 16-node
    single-cluster references; ask for ``nodes_per_site=16`` and place all
    ranks in one cluster for that.
    """
    if nodes_per_site < 1:
        raise NetworkConfigError("need at least one node per site")
    a, b = sites
    net = Network("grid5000-pair")
    _add_site(net, a, nodes_per_site, wan_access_bps)
    _add_site(net, b, nodes_per_site, wan_access_bps)
    key = frozenset(sites)
    rtt_ms = GRID5000_RTT_MS.get(key)
    if rtt_ms is None:
        raise NetworkConfigError(f"no RTT known between {a!r} and {b!r}")
    net.set_rtt(a, b, msec(rtt_ms))
    return net


def build_ray2mesh_testbed(nodes_per_site: int = 8) -> Network:
    """The four-cluster testbed of Fig. 8 (ray2mesh experiments)."""
    net = Network("grid5000-ray2mesh")
    sites = ("rennes", "nancy", "sophia", "toulouse")
    for site in sites:
        _add_site(net, site, nodes_per_site, Gbps(1))
    for pair, rtt_ms in GRID5000_RTT_MS.items():
        a, b = sorted(pair)
        net.set_rtt(a, b, msec(rtt_ms))
    return net
