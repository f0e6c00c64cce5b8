"""What a job holds: bytes per TCP direction, and freeing by refcount.

An 8+8 grid NPB job opens up to 240 rank-pair directions, and a campaign
runs dozens of such jobs one after another, so both the size of one
direction and how soon a finished job's connections are freed show up
in a run's peak memory.
"""

import gc
import math
import tracemalloc
import weakref

from repro.experiments.environments import get_environment, grid_placement
from repro.faults import FaultProfile
from repro.mpi import MpiJob
from repro.npb.suite import get_benchmark
from repro.tcp.connection import TcpConnection, TcpOptions

#: allocation ceiling for one opened direction, transport bookkeeping
#: included (1.1-1.3 kB on CPython 3.10-3.12)
MAX_BYTES_PER_DIRECTION = 2048


def _grid_job(nprocs: int) -> MpiJob:
    env = get_environment("fully_tuned")
    network, placement = grid_placement(nprocs)
    return MpiJob(network, env.impl("mpich2"), placement, sysctls=env.sysctls)


def test_an_opened_direction_allocates_at_most_2_kb():
    job = _grid_job(16)
    pairs = [(s, d) for s in range(job.nprocs) for d in range(job.nprocs) if s != d]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        links = [job.transport.link(s, d) for s, d in pairs]
        allocated = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(links) == 240  # one node per rank: every pair is a TCP direction
    assert allocated / len(links) <= MAX_BYTES_PER_DIRECTION
    # Lossless directions never draw, so they hold no draw buffer.
    assert all(link._loss_rng is None and link._draws is None for link in links)


def test_only_a_lossy_direction_holds_a_draw_buffer():
    job = _grid_job(2)  # one rank per site: the route crosses the WAN
    lossy = TcpOptions(fault_profile=FaultProfile(seed=1, loss_prob=0.01))
    conn = job.fabric.connect(job.placement[0], job.placement[1], lossy)
    assert conn.forward._draws is not None and conn.backward._draws is not None


def _live_connections() -> int:
    return sum(isinstance(obj, TcpConnection) for obj in gc.get_objects())


def test_a_dropped_job_is_freed_by_refcount():
    gc.collect()
    gc.disable()
    try:
        before = _live_connections()
        job = _grid_job(4)
        result = job.run(get_benchmark("cg")("S", job.nprocs, sample_iters=1))
        refs = [weakref.ref(job.transport), weakref.ref(job.fabric), weakref.ref(job.env)]
        assert _live_connections() > before  # the run opened connections
        del job
        assert [ref() for ref in refs] == [None, None, None]
        assert _live_connections() == before
    finally:
        gc.enable()
    assert math.isfinite(result.makespan)
