"""Leader election and hierarchical-collective correctness.

Covers the invariants documented in ``repro.mpi.collectives.hierarchy``:
lowest-rank leaders with the root overriding its own site, independence
from rank contiguity, size-1 sites, and single-site degradation to the
flat default — plus differential tests asserting the hierarchical
variants produce byte-for-byte the same reduction results as the flat
algorithms they replace.
"""

import numpy as np
import pytest

from repro.impls import get_implementation
from repro.mpi import MpiJob, SUM
from repro.mpi.collectives.hierarchy import site_layout
from repro.net import build_pair_testbed
from repro.tcp import TUNED_SYSCTLS
from tests.conftest import make_cluster_job, make_grid_job

HIER_OPS = ("reduce", "allreduce", "gather")


def make_interleaved_job(nprocs=8, impl=None, **kwargs):
    """Ranks alternate rennes/nancy: rank i sits on site i mod 2."""
    half = (nprocs + 1) // 2
    net = build_pair_testbed(nodes_per_site=half)
    rennes = net.clusters["rennes"].nodes
    nancy = net.clusters["nancy"].nodes
    placement = [
        rennes[i // 2] if i % 2 == 0 else nancy[i // 2] for i in range(nprocs)
    ]
    impl = impl or get_implementation("mpich2")
    return MpiJob(net, impl, placement, sysctls=TUNED_SYSCTLS, **kwargs)


def make_lopsided_job(nprocs=5, impl=None, **kwargs):
    """One site holds a single rank (the last one)."""
    net = build_pair_testbed(nodes_per_site=nprocs)
    placement = net.clusters["rennes"].nodes[: nprocs - 1] + [
        net.clusters["nancy"].nodes[0]
    ]
    impl = impl or get_implementation("mpich2")
    return MpiJob(net, impl, placement, sysctls=TUNED_SYSCTLS, **kwargs)


def layouts_of(job, root=0):
    """Every rank's layout, computed from the job's communicators."""
    return [site_layout(comm, root) for comm in job.comms]


# --- leader election ---------------------------------------------------------------
def test_leaders_are_lowest_rank_per_site_contiguous():
    job = make_grid_job(nprocs=8)
    for layout in layouts_of(job):
        assert layout.leaders == (0, 4)
        assert layout.my_leader == (0 if layout.rank < 4 else 4)


def test_leaders_ignore_rank_contiguity():
    # Interleaved placement: sites are {evens} and {odds}; the leaders are
    # the lowest member of each (invariant 3 — contiguity never matters).
    job = make_interleaved_job(nprocs=8)
    for layout in layouts_of(job):
        assert layout.leaders == (0, 1)
        assert layout.my_leader == (0 if layout.rank % 2 == 0 else 1)
        assert layout.local == tuple(
            r for r in range(8) if r % 2 == layout.rank % 2
        )


def test_root_overrides_its_sites_leader():
    # Root 3 is NOT the lowest rank of its site (the odds); it must lead
    # anyway so it never forwards through an intermediary on its own LAN.
    job = make_interleaved_job(nprocs=8)
    for layout in layouts_of(job, root=3):
        assert set(layout.leaders) == {0, 3}
        if layout.rank % 2 == 1:
            assert layout.my_leader == 3


def test_rank0_site_is_first_in_leader_order():
    # Rank 0's site leads the deterministic WAN iteration order even when
    # the root (and thus the first leader entry's override) is elsewhere.
    job = make_interleaved_job(nprocs=8)
    for layout in layouts_of(job, root=5):
        assert layout.leaders[0] == 0
        assert layout.leaders[1] == 5


def test_single_rank_site():
    job = make_lopsided_job(nprocs=5)
    for layout in layouts_of(job):
        assert layout.leaders == (0, 4)
        if layout.rank == 4:
            assert layout.local == (4,)
            assert layout.is_leader


def test_single_site_layout_degrades():
    job = make_cluster_job(nprocs=4)
    for layout in layouts_of(job):
        assert layout.single_site
        assert layout.leaders == (0,)
        assert layout.local == (0, 1, 2, 3)


def test_election_is_communication_free():
    # Pure function of the placement: no messages may be exchanged.
    job = make_interleaved_job(nprocs=8, trace=True)
    layouts_of(job)
    layouts_of(job, root=3)
    assert job.trace.total_messages == 0


# --- single-site degradation: hierarchical == flat default ------------------------
@pytest.mark.parametrize("op", sorted(HIER_OPS))
def test_single_site_degrades_to_flat_default(op):
    """On one site the hierarchical variant must not just be correct — it
    must produce the *identical schedule* to the flat default (same
    messages, same makespan)."""

    def program(ctx):
        data = np.arange(64, dtype=np.int64) * (ctx.rank + 1)
        if op == "reduce":
            yield from ctx.comm.reduce(data, nbytes=data.nbytes, op=SUM)
        elif op == "allreduce":
            yield from ctx.comm.allreduce(data, nbytes=data.nbytes, op=SUM)
        else:
            yield from ctx.comm.gather(data, nbytes_each=data.nbytes)

    def run(algo_name):
        impl = get_implementation("mpich2")
        if algo_name is not None:
            impl = impl.with_collective(op, algo_name)
        job = make_cluster_job(nprocs=8, impl=impl, trace=True)
        result = job.run(program)
        return result.makespan, job.trace.total_messages

    assert run("hierarchical") == run(None)


# --- differential: hierarchical vs flat, byte-for-byte -----------------------------
@pytest.mark.parametrize("job_maker", [make_grid_job, make_interleaved_job])
@pytest.mark.parametrize("root", [0, 3])
def test_reduce_hierarchical_matches_flat_bytes(job_maker, root):
    """Integer payloads: the hierarchical reduction must equal the flat
    binomial one exactly (integer addition is associative, so any combine
    order yields the same bytes)."""

    def program(ctx):
        data = np.arange(256, dtype=np.int64) * (ctx.rank + 1)
        result = yield from ctx.comm.reduce(
            data, nbytes=data.nbytes, op=SUM, root=root
        )
        return None if result is None else np.asarray(result).tolist()

    def run(algo_name):
        impl = get_implementation("mpich2").with_collective("reduce", algo_name)
        job = job_maker(nprocs=8, impl=impl)
        return job.run(program).returns

    flat = run("binomial")
    hier = run("hierarchical")
    assert hier[root] == flat[root]
    assert hier[root] is not None


@pytest.mark.parametrize("job_maker", [make_grid_job, make_interleaved_job])
def test_allreduce_hierarchical_matches_flat_bytes(job_maker):
    def program(ctx):
        data = np.arange(256, dtype=np.int64) * (ctx.rank + 1)
        result = yield from ctx.comm.allreduce(data, nbytes=data.nbytes, op=SUM)
        return np.asarray(result).tolist()

    def run(algo_name):
        impl = get_implementation("mpich2").with_collective("allreduce", algo_name)
        job = job_maker(nprocs=8, impl=impl)
        return job.run(program).returns

    flat = run("recursive_doubling")
    hier = run("hierarchical")
    assert hier == flat
    # and every rank agrees with every other, bit for bit
    assert all(r == hier[0] for r in hier)


@pytest.mark.parametrize("job_maker", [make_grid_job, make_interleaved_job])
@pytest.mark.parametrize("root", [0, 3])
def test_gather_hierarchical_matches_flat_bytes(job_maker, root):
    def program(ctx):
        data = [ctx.rank, "payload", ctx.rank**2]
        result = yield from ctx.comm.gather(data, nbytes_each=1024, root=root)
        return result

    def run(algo_name):
        impl = get_implementation("mpich2").with_collective("gather", algo_name)
        job = job_maker(nprocs=8, impl=impl)
        return job.run(program).returns

    flat = run("binomial")
    hier = run("hierarchical")
    assert hier[root] == flat[root]
    assert hier[root] == [[r, "payload", r**2] for r in range(8)]


# --- WAN-crossing contract ---------------------------------------------------------
@pytest.mark.parametrize(
    "op,expected_wan",
    [("reduce", 1), ("allreduce", 2), ("gather", 1)],
)
def test_hierarchical_wan_crossings(op, expected_wan):
    """Two sites: reduce/gather cross once (leader -> root), allreduce
    exchanges both ways — compared to O(P) for the flat trees under the
    interleaved placement."""

    def program(ctx):
        data = np.ones(128)
        if op == "reduce":
            yield from ctx.comm.reduce(data, nbytes=data.nbytes, op=SUM)
        elif op == "allreduce":
            yield from ctx.comm.allreduce(data, nbytes=data.nbytes, op=SUM)
        else:
            yield from ctx.comm.gather(data, nbytes_each=data.nbytes)

    impl = get_implementation("mpich2").with_collective(op, "hierarchical")
    job = make_interleaved_job(nprocs=8, impl=impl, trace=True)
    job.run(program)
    assert job.trace.inter_site_messages == expected_wan

    flat = make_interleaved_job(nprocs=8, trace=True)
    flat.run(program)
    assert flat.trace.inter_site_messages > expected_wan
