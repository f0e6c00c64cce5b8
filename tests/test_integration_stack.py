"""Cross-layer integration tests: the full stack behaving as a system."""

import math

from repro.impls import get_implementation
from repro.mpi import MpiJob, SUM
from repro.net import build_pair_testbed, build_ray2mesh_testbed
from repro.tcp import DEFAULT_SYSCTLS, TUNED_SYSCTLS
from repro.units import MB, msec


def test_collective_across_four_sites():
    """A broadcast over the full ray2mesh testbed (4 clusters, 32 nodes)."""
    net = build_ray2mesh_testbed(nodes_per_site=8)
    placement = [n for s in sorted(net.clusters) for n in net.clusters[s].nodes]
    impl = get_implementation("gridmpi")
    job = MpiJob(net, impl, placement, sysctls=TUNED_SYSCTLS)

    def program(ctx):
        value = yield from ctx.comm.bcast(
            "payload" if ctx.rank == 0 else None, nbytes=MB, root=0
        )
        assert value == "payload"
        total = yield from ctx.comm.allreduce(1.0, nbytes=8, op=SUM)
        return total

    result = job.run(program)
    assert all(v == 32.0 for v in result.returns)
    # The broadcast must have taken at least one worst-path one-way delay.
    assert result.makespan > msec(9)


def test_wan_contention_shared_fairly():
    """Eight concurrent WAN flows share the 1 Gbps access link."""
    net = build_pair_testbed(nodes_per_site=8)
    placement = net.clusters["rennes"].nodes[:8] + net.clusters["nancy"].nodes[:8]
    impl = get_implementation("gridmpi")
    job = MpiJob(net, impl, placement, sysctls=TUNED_SYSCTLS)
    size = 8 * MB

    def program(ctx):
        if ctx.rank < 8:  # every Rennes rank sends to its Nancy twin
            yield from ctx.comm.send(ctx.rank + 8, nbytes=size)
        else:
            t0 = ctx.wtime()
            yield from ctx.comm.recv(ctx.rank - 8)
            return ctx.wtime() - t0

    result = job.run(program)
    times = [t for t in result.returns if t is not None]
    # Eight flows through one 1 Gbps uplink: at least ~8x the solo
    # serialisation time (64 MB total over <=940 Mbps goodput).
    total_bytes = 8 * size
    floor = total_bytes * 8 / 1e9
    assert max(times) >= floor * 0.8
    # Fair sharing: no receiver finishes wildly later than another.
    assert max(times) / min(times) < 1.6


def test_mixed_sysctl_grid():
    """Tuning only one site is not enough: the untuned receiver's window
    still caps the transfer (min of both ends)."""
    net = build_pair_testbed(nodes_per_site=1)
    a = net.clusters["rennes"].nodes[0]
    b = net.clusters["nancy"].nodes[0]
    impl = get_implementation("mpich2").with_eager_threshold(65 * MB)

    def bandwidth(sysctls):
        job = MpiJob(net, impl, [a, b], sysctls=sysctls)
        done = {}

        def program(ctx):
            if ctx.rank == 0:
                for _ in range(10):
                    t0 = ctx.wtime()
                    yield from ctx.comm.send(1, nbytes=8 * MB)
                    yield from ctx.comm.recv(1)
                    done.setdefault("best", []).append(
                        8 * MB * 8 / ((ctx.wtime() - t0) / 2) / 1e6
                    )
            else:
                for _ in range(10):
                    yield from ctx.comm.recv(0)
                    yield from ctx.comm.send(0, nbytes=1)

        job.run(program)
        return max(done["best"])

    both = bandwidth(TUNED_SYSCTLS)
    only_sender = bandwidth({"rennes": TUNED_SYSCTLS, "nancy": DEFAULT_SYSCTLS})
    assert both > 3 * only_sender  # receiver window caps at ~174 kB


def test_determinism_full_stack():
    """Two identical NPB runs give bit-identical makespans."""
    from repro.npb import run_npb

    def once():
        net = build_pair_testbed(nodes_per_site=4)
        placement = net.clusters["rennes"].nodes[:4] + net.clusters["nancy"].nodes[:4]
        return run_npb(
            "cg", "W", net, get_implementation("openmpi"), placement,
            sysctls=TUNED_SYSCTLS, sample_iters=3,
        ).time

    assert once() == once()


def test_known_failure_surface_in_results():
    from repro.npb import run_npb

    net = build_pair_testbed(nodes_per_site=8)
    placement = net.clusters["rennes"].nodes[:8] + net.clusters["nancy"].nodes[:8]
    result = run_npb(
        "sp", "B", net, get_implementation("madeleine"), placement,
        sysctls=TUNED_SYSCTLS,
    )
    assert result.timed_out and math.isinf(result.time)
