"""Network substrate: fluid bandwidth sharing, topology, the Grid'5000 model.

The network is modelled at *flow level* (no packets): a transfer is a fluid
flow across a sequence of capacity pipes (sender NIC, site uplink, site
downlink, receiver NIC); concurrent flows share pipe capacity max-min
fairly.  Propagation latency is a property of the route and is applied by
the transport layer on top (see :mod:`repro.tcp`).

This level of abstraction is exactly what the paper's phenomena live on:
throughput limited by ``min(window/RTT, bottleneck share)``, NIC
serialisation at collective roots, and WAN sharing between concurrent
inter-site flows.
"""

from repro.net.fluid import Flow, FluidNetwork, Pipe
from repro.net.topology import Cluster, Network, Node, Route
from repro.net.grid5000 import (
    GRID5000_RTT_MS,
    HOST_SPECS,
    build_pair_testbed,
    build_ray2mesh_testbed,
)

__all__ = [
    "Cluster",
    "Flow",
    "FluidNetwork",
    "GRID5000_RTT_MS",
    "HOST_SPECS",
    "Network",
    "Node",
    "Pipe",
    "Route",
    "build_pair_testbed",
    "build_ray2mesh_testbed",
]
