"""Runtime behaviour (placement, timeout, results) and trace accounting."""

import math

import pytest

from repro.errors import MpiError
from repro.impls import get_implementation
from repro.mpi import MpiJob
from repro.mpi.constants import POINT_TO_POINT_CONTEXT
from repro.net import build_pair_testbed
from repro.sim import RngRegistry
from repro.tcp import DEFAULT_SYSCTLS, TUNED_SYSCTLS
from repro.units import KB
from tests.conftest import make_cluster_job, make_grid_job


def test_empty_placement_rejected():
    net = build_pair_testbed()
    with pytest.raises(MpiError):
        MpiJob(net, get_implementation("mpich2"), [])


def test_rank_context_fields():
    job = make_cluster_job(nprocs=3)

    def program(ctx):
        assert ctx.size == 3
        assert ctx.comm.rank == ctx.rank
        assert ctx.node is job.placement[ctx.rank]
        yield from ctx.compute(0)
        return ctx.rank

    result = job.run(program)
    assert result.returns == [0, 1, 2]
    assert result.nprocs == 3


def test_compute_charges_by_node_speed():
    job = make_grid_job(nprocs=2)  # rank0 Rennes (1.10), rank1 Nancy (1.00)

    def program(ctx):
        yield from ctx.compute(1e9)
        return ctx.wtime()

    result = job.run(program)
    assert result.returns[0] == pytest.approx(1 / 1.10)
    assert result.returns[1] == pytest.approx(1 / 1.00)
    assert result.makespan == pytest.approx(1.0)


def test_negative_compute_rejected():
    job = make_cluster_job(nprocs=1)

    def program(ctx):
        yield from ctx.compute(-1)

    with pytest.raises(MpiError):
        job.run(program)


def test_per_rank_rng_deterministic_and_distinct():
    draws = {}
    for attempt in range(2):
        job = make_cluster_job(nprocs=2, seed=7)

        def program(ctx):
            yield from ctx.compute(0)
            return float(ctx.rng.random())

        draws[attempt] = job.run(program).returns
    assert draws[0] == draws[1]
    assert draws[0][0] != draws[0][1]


def test_rank_rng_is_the_registry_stream_built_on_first_read():
    job = make_cluster_job(nprocs=2, seed=7)
    assert job.rngs._streams == {}
    ctx = job.contexts[1]
    assert ctx.rng is ctx.rng is job.rngs.stream("rank1")
    reference = RngRegistry(7).stream("rank1")
    assert ctx.rng.random(4).tolist() == reference.random(4).tolist()


def test_sysctls_dict_per_cluster():
    net = build_pair_testbed(nodes_per_site=1)
    placement = [net.clusters["rennes"].nodes[0], net.clusters["nancy"].nodes[0]]
    job = MpiJob(
        net,
        get_implementation("mpich2"),
        placement,
        sysctls={"rennes": TUNED_SYSCTLS},
    )
    assert job.fabric.sysctls_for(placement[0]) is TUNED_SYSCTLS
    assert job.fabric.sysctls_for(placement[1]) is DEFAULT_SYSCTLS


# --- tracing -----------------------------------------------------------------------
def test_trace_separates_contexts():
    job = make_cluster_job(nprocs=4)

    def program(ctx):
        yield from ctx.comm.allreduce(1.0, nbytes=8)
        if ctx.rank == 0:
            yield from ctx.comm.send(1, nbytes=123)
        elif ctx.rank == 1:
            yield from ctx.comm.recv(0)

    result = job.run(program)
    p2p = result.trace.p2p_summary()
    assert p2p.messages == 1
    assert p2p.bytes == 123
    coll = result.trace.collective_summary()
    assert coll.messages > 0
    assert result.trace.collective_calls["allreduce"] == 4  # one call per rank


def test_trace_dominant_sizes_and_describe():
    job = make_cluster_job(nprocs=2)

    def program(ctx):
        if ctx.rank == 0:
            for _ in range(5):
                yield from ctx.comm.send(1, nbytes=8)
            for _ in range(3):
                yield from ctx.comm.send(1, nbytes=1024)
        else:
            for _ in range(8):
                yield from ctx.comm.recv(0)

    result = job.run(program)
    dominant = dict(result.trace.dominant_sizes(POINT_TO_POINT_CONTEXT))
    assert dominant == {8: 5, 1024: 3}
    text = result.trace.describe(POINT_TO_POINT_CONTEXT)
    assert "5 * 8" in text
    assert "3 * 1k" in text


def test_trace_histogram_bands():
    job = make_cluster_job(nprocs=2)

    def program(ctx):
        if ctx.rank == 0:
            for nbytes in (100, 120, 100 * KB):
                yield from ctx.comm.send(1, nbytes=nbytes)
        else:
            for _ in range(3):
                yield from ctx.comm.recv(0)

    result = job.run(program)
    bands = result.trace.size_histogram(POINT_TO_POINT_CONTEXT)
    assert sum(count for _, _, count in bands) == 3


def test_trace_disabled_records_nothing():
    job = make_cluster_job(nprocs=2, trace=False)

    def program(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.send(1, nbytes=100)
        else:
            yield from ctx.comm.recv(0)

    result = job.run(program)
    assert result.trace.total_messages == 0


def test_collective_traffic_volume_sane():
    """Recursive-doubling allreduce on P ranks moves P*log2(P) messages."""
    nprocs = 8
    job = make_cluster_job(nprocs=nprocs, impl_name="mpich2")

    def program(ctx):
        yield from ctx.comm.allreduce(1.0, nbytes=1024)

    result = job.run(program)
    coll = result.trace.collective_summary()
    assert coll.messages == nprocs * math.log2(nprocs)
