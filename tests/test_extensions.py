"""What remains of the extension implementations (MPICH-G2, MPICH-VMI).

The paper describes both but benchmarks neither: they are Table 1's
static rows, while the runnable registry holds the four measured
implementations and every rank pair talks over one TCP connection."""

import pytest

from repro.errors import MpiError
from repro.experiments import table1
from repro.impls import ALL_IMPLEMENTATIONS, IMPLEMENTATION_ORDER, get_implementation
from repro.mpi.transport import Transport
from repro.net import build_pair_testbed
from repro.units import MB
from tests.conftest import make_grid_job


def test_extended_registry():
    """The runnable set is the paper's four; G2 and VMI are Table 1 rows
    listed after them, not implementations to run."""
    assert set(ALL_IMPLEMENTATIONS) == set(IMPLEMENTATION_ORDER)
    assert len(ALL_IMPLEMENTATIONS) == 4
    for name in ("g2", "VMI", "mpichg2", "mpich-vmi"):
        with pytest.raises(MpiError):
            get_implementation(name)
    rows = [row["implementation"] for row in table1.run().rows]
    measured = [ALL_IMPLEMENTATIONS[name].display_name for name in IMPLEMENTATION_ORDER]
    assert rows == measured + ["MPICH-G2", "MPICH-VMI"]


def test_g2_model_fields():
    """Table 1's MPICH-G2 row: collective optimisations and parallel
    streams over the WAN, TCP above a vendor MPI inside a cluster."""
    g2 = table1.DESCRIBED_ONLY["MPICH-G2"]
    assert "collective" in g2.long_distance
    assert "parallel streams" in g2.long_distance
    assert "VendorMPI" in g2.heterogeneity
    vmi = table1.DESCRIBED_ONLY["MPICH-VMI"]
    assert "collective" in vmi.long_distance
    assert "Myrinet" in vmi.heterogeneity


def test_multistream_preserves_message_integrity():
    """Large messages over the one WAN connection keep their payloads and
    their order."""
    job = make_grid_job(nprocs=2)
    got = []

    def program(ctx):
        if ctx.rank == 0:
            for i in range(3):
                yield from ctx.comm.send(1, nbytes=4 * MB, tag=1, payload=i)
        else:
            for _ in range(3):
                payload, _ = yield from ctx.comm.recv(0, 1)
                got.append(payload)

    job.run(program)
    assert got == [0, 1, 2]


def test_single_stream_tcp_link_is_the_connection_direction():
    """One TCP connection per pair: the link is the connection's direction
    itself, with no forwarding wrapper around its ``transmit``."""
    from repro.sim import Environment
    from repro.tcp.connection import Fabric, TcpOptions

    net = build_pair_testbed(nodes_per_site=1)
    fabric = Fabric(Environment(), net)
    placement = [net.clusters["rennes"].nodes[0], net.clusters["nancy"].nodes[0]]
    transport = Transport(fabric, placement, TcpOptions())
    link = transport.link(0, 1)
    conn = transport._connections[frozenset((0, 1))]
    assert link is conn.direction(transport.node_of(0))
    assert transport.link(1, 0) is conn.direction(transport.node_of(1))
    assert link.inter_site and link.inter_site is link.route.inter_site
