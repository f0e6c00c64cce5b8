"""Property-based tests (hypothesis) on core invariants.

The simulation is deterministic, so hypothesis explores *inputs* (message
schedules, vector sizes, rank counts, operations) while each run remains
exactly reproducible.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.impls import get_implementation
from repro.mpi import MAX, MIN, SUM
from repro.mpi.collectives.segutil import chunk_sizes, join_array, split_array
from repro.units import KB
from tests.conftest import make_cluster_job

# Keep runs small: each example spins up a full simulation.
FAST = settings(max_examples=25, deadline=None)


# --- segmentation helpers ------------------------------------------------------
@given(nbytes=st.integers(0, 10**9), parts=st.integers(1, 64))
@FAST
def test_chunk_sizes_partition(nbytes, parts):
    sizes = chunk_sizes(nbytes, parts)
    assert len(sizes) == parts
    assert sum(sizes) == nbytes
    assert max(sizes) - min(sizes) <= 1
    assert all(s >= 0 for s in sizes)


@given(n=st.integers(1, 5000), parts=st.integers(1, 32))
@FAST
def test_split_join_roundtrip(n, parts):
    arr = np.arange(n, dtype=np.float64)
    segments = split_array(arr, parts)
    rebuilt = join_array(segments, arr.shape)
    np.testing.assert_array_equal(rebuilt, arr)


# --- message ordering -------------------------------------------------------------
@given(
    sizes=st.lists(st.integers(1, 512 * KB), min_size=1, max_size=12),
    seed=st.integers(0, 10**6),
)
@FAST
def test_messages_arrive_in_send_order(sizes, seed):
    """Whatever the mix of eager and rendezvous sizes, same-tag messages
    from one sender are received in send order (non-overtaking)."""
    job = make_cluster_job("mpich2", nprocs=2, seed=seed)
    received = []

    def program(ctx):
        if ctx.rank == 0:
            for i, nbytes in enumerate(sizes):
                yield from ctx.comm.send(1, nbytes=nbytes, tag=0, payload=i)
        else:
            for _ in sizes:
                payload, _ = yield from ctx.comm.recv(0, 0)
                received.append(payload)

    job.run(program)
    assert received == list(range(len(sizes)))


# --- collective correctness over random shapes --------------------------------------
@given(
    n=st.integers(1, 40000),
    nprocs=st.sampled_from([2, 3, 4, 8]),
    op_name=st.sampled_from(["sum", "max", "min"]),
)
@FAST
def test_allreduce_matches_numpy(n, nprocs, op_name):
    op = {"sum": SUM, "max": MAX, "min": MIN}[op_name]
    np_fn = {"sum": np.sum, "max": np.max, "min": np.min}[op_name]
    job = make_cluster_job("gridmpi", nprocs=nprocs)  # rabenseifner path

    def program(ctx):
        data = np.linspace(ctx.rank, ctx.rank + 1, n)
        result = yield from ctx.comm.allreduce(data, nbytes=data.nbytes, op=op)
        expected = np_fn(
            np.stack([np.linspace(r, r + 1, n) for r in range(nprocs)]), axis=0
        )
        np.testing.assert_allclose(np.asarray(result).reshape(-1), expected, rtol=1e-9)
        return True

    assert all(job.run(program).returns)


@given(
    n=st.integers(1, 30000),
    nprocs=st.sampled_from([2, 4, 5, 8]),
    root=st.integers(0, 7),
)
@FAST
def test_bcast_van_de_geijn_matches_input(n, nprocs, root):
    root = root % nprocs
    impl = get_implementation("gridmpi")
    job = make_cluster_job(nprocs=nprocs, impl=impl)
    data = np.arange(n, dtype=np.float64)

    def program(ctx):
        payload = data.copy() if ctx.rank == root else None
        result = yield from ctx.comm.bcast(payload, nbytes=data.nbytes, root=root)
        np.testing.assert_array_equal(np.asarray(result).reshape(-1), data)
        return True

    assert all(job.run(program).returns)


# --- determinism ------------------------------------------------------------------------
@given(seed=st.integers(0, 1000), nprocs=st.sampled_from([2, 4]))
@settings(max_examples=10, deadline=None)
def test_identical_jobs_identical_makespans(seed, nprocs):
    def build():
        job = make_cluster_job("openmpi", nprocs=nprocs, seed=seed)

        def program(ctx):
            data = np.ones(1000) * ctx.rank
            yield from ctx.comm.allreduce(data, nbytes=data.nbytes)
            yield from ctx.comm.barrier()

        return job.run(program).makespan

    assert build() == build()


# --- conservation: traced bytes equal sent bytes --------------------------------------------
@given(
    sizes=st.lists(st.integers(0, 100 * KB), min_size=1, max_size=10),
)
@FAST
def test_trace_byte_conservation(sizes):
    job = make_cluster_job(nprocs=2)

    def program(ctx):
        if ctx.rank == 0:
            for nbytes in sizes:
                yield from ctx.comm.send(1, nbytes=nbytes)
        else:
            for _ in sizes:
                yield from ctx.comm.recv(0)

    result = job.run(program)
    assert result.trace.p2p_summary().messages == len(sizes)
    assert result.trace.p2p_summary().bytes == sum(sizes)
