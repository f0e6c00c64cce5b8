"""The three tuning states of the paper and the standard placements.

===============  =================================================
environment      meaning
===============  =================================================
``default``      out-of-the-box sysctls, stock implementations
                 (Fig. 3, Fig. 5)
``tcp_tuned``    §4.2.1: 4 MB buffers via sysctls (max *and* middle,
                 for GridMPI) and OpenMPI's mca buffer parameters
                 (Fig. 6)
``fully_tuned``  + §4.2.2: eager thresholds raised per Table 5
                 (Fig. 7 and all NPB/ray2mesh runs)
===============  =================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import ExperimentError
from repro.impls import ALL_IMPLEMENTATIONS, get_implementation
from repro.impls.base import MpiImplementation
from repro.net import build_pair_testbed
from repro.net.topology import Network, Node
from repro.tcp.sysctl import DEFAULT_SYSCTLS, SysctlConfig, TUNED_SYSCTLS
from repro.units import MB, Size

#: §4.2.1's socket buffer size: the Rennes-Nancy bandwidth-delay product is
#: 1.45 MB, and the paper rounds up to 4 MB "for compatibility with the rest
#: of the grid" (every inter-site path's BDP fits)
GRID_BUFFER_BYTES: Size = Size(4 * MB)

#: Table 5's tuned threshold ("65 MB": above the 64 MB sweep maximum)
GRID_EAGER_THRESHOLD: Size = Size(65 * MB)


@dataclass(frozen=True)
class GridEnvironment:
    """A named tuning state."""

    name: str
    sysctls: SysctlConfig
    _impl_transform: Callable[[MpiImplementation], MpiImplementation]

    def impl(self, name: str) -> MpiImplementation:
        return self._impl_transform(get_implementation(name))

    def impls(self) -> dict[str, MpiImplementation]:
        return {name: self.impl(name) for name in ALL_IMPLEMENTATIONS}


def default_environment() -> GridEnvironment:
    return GridEnvironment("default", DEFAULT_SYSCTLS, lambda impl: impl)


def tcp_tuned_environment() -> GridEnvironment:
    return GridEnvironment(
        "tcp_tuned",
        TUNED_SYSCTLS,
        lambda impl: impl.with_socket_buffers(GRID_BUFFER_BYTES),
    )


def fully_tuned_environment() -> GridEnvironment:
    return GridEnvironment(
        "fully_tuned",
        TUNED_SYSCTLS,
        lambda impl: impl.with_socket_buffers(GRID_BUFFER_BYTES).with_eager_threshold(
            GRID_EAGER_THRESHOLD
        ),
    )


ENVIRONMENTS = {
    "default": default_environment,
    "tcp_tuned": tcp_tuned_environment,
    "fully_tuned": fully_tuned_environment,
}


def get_environment(name: str) -> GridEnvironment:
    try:
        return ENVIRONMENTS[name]()
    except KeyError:
        raise ExperimentError(
            f"unknown environment {name!r}; have {sorted(ENVIRONMENTS)}"
        ) from None


# --- standard placements (Fig. 2) -----------------------------------------------------
def grid_placement(nprocs: int) -> tuple[Network, list[Node]]:
    """nprocs ranks split evenly between Rennes and Nancy."""
    if nprocs % 2:
        raise ExperimentError("grid placement needs an even rank count")
    half = nprocs // 2
    net = build_pair_testbed(nodes_per_site=half)
    return net, net.clusters["rennes"].nodes[:half] + net.clusters["nancy"].nodes[:half]


def cluster_placement(nprocs: int) -> tuple[Network, list[Node]]:
    """nprocs ranks inside the Rennes cluster."""
    net = build_pair_testbed(nodes_per_site=nprocs)
    return net, net.clusters["rennes"].nodes[:nprocs]


def pingpong_pair(where: str) -> tuple[Network, Node, Node]:
    """The two measurement nodes: PR1/PR2 (cluster) or PR1/PN1 (grid)."""
    net = build_pair_testbed(nodes_per_site=2)
    if where == "cluster":
        return net, net.clusters["rennes"].nodes[0], net.clusters["rennes"].nodes[1]
    if where == "grid":
        return net, net.clusters["rennes"].nodes[0], net.clusters["nancy"].nodes[0]
    raise ExperimentError(f"unknown pingpong location {where!r}")
