"""Heterogeneity (§2.1.7, §5): every modelled implementation talks TCP,
inside a cluster and across the WAN alike."""

import pytest

from repro.impls import get_implementation
from repro.mpi import MpiJob
from repro.net import build_pair_testbed
from repro.tcp import TUNED_SYSCTLS
from repro.units import to_usec


def one_byte_latency(impl_name, placement_of):
    net = build_pair_testbed(nodes_per_site=2)
    job = MpiJob(net, get_implementation(impl_name), placement_of(net),
                 sysctls=TUNED_SYSCTLS)

    def program(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.send(1, nbytes=1)
        else:
            yield from ctx.comm.recv(0)
            return ctx.wtime()

    return to_usec(job.run(program).returns[1])


def test_inter_site_still_tcp():
    """Across the WAN even Madeleine falls back to TCP (the paper's
    §2.1.2: Madeleine uses TCP for long distance)."""
    latency = one_byte_latency(
        "madeleine",
        lambda net: [net.clusters["rennes"].nodes[0], net.clusters["nancy"].nodes[0]],
    )
    assert latency == pytest.approx(5826, abs=3)  # Table 4's grid value


def test_tcp_only_impl_ignores_fabric():
    """GridMPI (no low-latency network support, Table 1) stays on TCP
    inside a cluster."""
    latency = one_byte_latency("gridmpi", lambda net: net.clusters["rennes"].nodes[:2])
    assert latency == pytest.approx(46, abs=2)  # the Table 4 TCP figure
