"""NPB: configuration validation, verification kernels, skeleton traffic."""

import math

import pytest

from repro.errors import WorkloadError
from repro.impls import get_implementation
from repro.mpi import MpiJob
from repro.mpi.constants import POINT_TO_POINT_CONTEXT
from repro.net import build_pair_testbed
from repro.npb import BENCHMARK_NAMES, COMM_TYPE, run_npb, validate_config
from repro.npb.common import (
    DEFAULT_SAMPLE_ITERS,
    FLOP_COUNTS,
    grid_2d,
    grid_3d,
    per_rank_flops,
    sampled_loop,
)
from repro.npb.suite import get_benchmark, get_verifier
from repro.tcp import TUNED_SYSCTLS


def cluster16():
    net = build_pair_testbed(nodes_per_site=16)
    return net, net.clusters["rennes"].nodes[:16]


def grid_8_8():
    net = build_pair_testbed(nodes_per_site=8)
    return net, net.clusters["rennes"].nodes[:8] + net.clusters["nancy"].nodes[:8]


# --- configuration ---------------------------------------------------------------
def test_all_benchmarks_known():
    assert set(BENCHMARK_NAMES) == {"ep", "cg", "mg", "lu", "sp", "bt", "is", "ft"}
    for name in BENCHMARK_NAMES:
        assert name in COMM_TYPE
        assert name in FLOP_COUNTS
        assert name in DEFAULT_SAMPLE_ITERS


def test_validate_config_rejects_bad_input():
    with pytest.raises(WorkloadError):
        validate_config("xx", "B", 4)
    with pytest.raises(WorkloadError):
        validate_config("cg", "Z", 4)
    with pytest.raises(WorkloadError):
        validate_config("cg", "B", 3)  # not a power of two
    with pytest.raises(WorkloadError):
        validate_config("bt", "B", 8)  # not square
    validate_config("bt", "B", 16)
    validate_config("cg", "B", 16)


def test_unknown_benchmark_lookup():
    with pytest.raises(WorkloadError):
        get_benchmark("hpl")
    with pytest.raises(WorkloadError):
        get_verifier("hpl")


def test_grid_factorisations():
    assert grid_2d(16) == (4, 4)
    assert grid_2d(4) == (2, 2)
    assert grid_2d(8) in ((4, 2),)
    assert sorted(grid_3d(16), reverse=True) == list(grid_3d(16))
    assert math.prod(grid_3d(16)) == 16
    assert math.prod(grid_3d(12)) == 12


def test_per_rank_flops():
    from repro.npb.common import EFFICIENCY

    # operation count split per rank, inflated by the sustained-efficiency
    # factor (LU runs at ~40 % of the calibrated node rate)
    assert per_rank_flops("lu", "B", 16) == pytest.approx(
        119.3e9 / 16 / EFFICIENCY["lu"]
    )
    assert 0 < EFFICIENCY["cg"] < EFFICIENCY["lu"] <= 0.5


# --- sampling ---------------------------------------------------------------------
def test_sampled_loop_extrapolates():
    from tests.conftest import make_cluster_job

    job = make_cluster_job(nprocs=1)
    executed = []

    def program(ctx):
        def body(it):
            executed.append(it)
            yield from ctx.compute_time(1.0)

        yield from sampled_loop(ctx, total_iters=10, sample_iters=3, body=body)

    result = job.run(program)
    assert executed == [0, 1, 2]
    assert result.makespan == pytest.approx(10.0)


def test_sampled_loop_full_when_none():
    from tests.conftest import make_cluster_job

    job = make_cluster_job(nprocs=1)
    executed = []

    def program(ctx):
        def body(it):
            executed.append(it)
            yield from ctx.compute_time(0.1)

        yield from sampled_loop(ctx, total_iters=5, sample_iters=None, body=body)

    job.run(program)
    assert executed == [0, 1, 2, 3, 4]


# --- verification kernels: the dataflow of every skeleton is real ---------------------
@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_verification_kernel(name):
    nprocs = 4
    net = build_pair_testbed(nodes_per_site=4)
    placement = net.clusters["rennes"].nodes[:4]
    program = get_verifier(name)(nprocs)
    job = MpiJob(net, get_implementation("mpich2"), placement, sysctls=TUNED_SYSCTLS)
    result = job.run(program)
    if name == "cg":  # returns the relative solution error
        assert all(err < 1e-8 for err in result.returns)
    else:
        assert all(bool(v) for v in result.returns)


def test_verification_kernels_16_ranks():
    net, placement = cluster16()
    for name in ("lu", "bt", "ft"):
        program = get_verifier(name)(16)
        job = MpiJob(net, get_implementation("gridmpi"), placement, sysctls=TUNED_SYSCTLS)
        result = job.run(program)
        assert all(bool(v) for v in result.returns), name


# --- skeleton runs -----------------------------------------------------------------------
@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_class_s_runs_quickly(name):
    net = build_pair_testbed(nodes_per_site=4)
    placement = net.clusters["rennes"].nodes[:4]
    result = run_npb(
        name, "S", net, get_implementation("mpich2"), placement,
        sysctls=TUNED_SYSCTLS, sample_iters=None,
    )
    assert result.completed
    assert 0 < result.time < 60


def test_class_b_ep_structure():
    net, placement = grid_8_8()
    result = run_npb(
        "ep", "B", net, get_implementation("gridmpi"), placement,
        sysctls=TUNED_SYSCTLS, trace=True,
    )
    assert result.completed
    # EP: almost pure compute, three tiny collectives.
    assert result.trace.collective_calls["allreduce"] == 3 * 16
    assert result.trace.p2p_summary().messages == 0
    compute_floor = FLOP_COUNTS["ep"]["B"] * 1e9 / 16 / 1.10e9
    assert result.time >= compute_floor


def test_lu_message_sizes_match_table2():
    """Table 2: LU sends ~1 kB messages (960-1040 B for class B)."""
    net, placement = grid_8_8()
    result = run_npb(
        "lu", "B", net, get_implementation("gridmpi"), placement,
        sysctls=TUNED_SYSCTLS, sample_iters=2, trace=True,
    )
    dominant = result.trace.dominant_sizes(POINT_TO_POINT_CONTEXT, top=1)[0]
    assert 800 <= dominant[0] <= 1200


def test_cg_has_8b_and_140k_messages():
    """Table 2: CG mixes 8 B dot products with ~147 kB vector exchanges."""
    net, placement = grid_8_8()
    result = run_npb(
        "cg", "B", net, get_implementation("gridmpi"), placement,
        sysctls=TUNED_SYSCTLS, sample_iters=1, trace=True,
    )
    sizes = {s for s, _ in result.trace.dominant_sizes(POINT_TO_POINT_CONTEXT, top=5)}
    assert 8 in sizes
    assert any(120_000 <= s <= 160_000 for s in sizes)


def test_is_ft_are_collective_benchmarks():
    net, placement = grid_8_8()
    for name in ("is", "ft"):
        result = run_npb(
            name, "A", net, get_implementation("mpich2"), placement,
            sysctls=TUNED_SYSCTLS, sample_iters=2, trace=True,
        )
        assert result.trace.collective_summary().messages > 0
        assert result.trace.p2p_summary().messages == 0, name


def test_madeleine_known_failures_reported():
    net, placement = grid_8_8()
    impl = get_implementation("madeleine")
    result = run_npb("bt", "B", net, impl, placement, sysctls=TUNED_SYSCTLS)
    assert result.timed_out
    assert not result.completed
    assert math.isinf(result.time)
    # but it can be forced to run anyway
    result2 = run_npb(
        "bt", "S", net, impl, placement, sysctls=TUNED_SYSCTLS,
        honor_known_failures=False, sample_iters=2,
    )
    assert result2.completed


def test_run_suite():
    """Several kernels run one after another on one network and placement."""
    net = build_pair_testbed(nodes_per_site=4)
    placement = net.clusters["rennes"].nodes[:4]
    impl = get_implementation("mpich2")
    results = [
        run_npb(name, "S", net, impl, placement, sysctls=TUNED_SYSCTLS) for name in ("ep", "mg")
    ]
    assert [r.name for r in results] == ["ep", "mg"]
    assert all(r.completed for r in results)


def test_grid_slower_than_cluster_for_cg():
    """CG (little messages) must suffer on the grid (Fig. 12)."""
    impl = get_implementation("gridmpi")
    net_c, cluster_placement = cluster16()
    r_cluster = run_npb(
        "cg", "A", net_c, impl, cluster_placement, sysctls=TUNED_SYSCTLS, sample_iters=2
    )
    net_g, grid_placement = grid_8_8()
    r_grid = run_npb(
        "cg", "A", net_g, impl, grid_placement, sysctls=TUNED_SYSCTLS, sample_iters=2
    )
    assert r_grid.time > 1.5 * r_cluster.time


def test_ep_nearly_unaffected_by_grid():
    """EP relative performance ≈ 1 (Fig. 12)."""
    impl = get_implementation("gridmpi")
    net_c, cluster_placement = cluster16()
    r_cluster = run_npb("ep", "A", net_c, impl, cluster_placement, sysctls=TUNED_SYSCTLS)
    net_g, grid_placement = grid_8_8()
    r_grid = run_npb("ep", "A", net_g, impl, grid_placement, sysctls=TUNED_SYSCTLS)
    # Most of the residual gap is CPU heterogeneity (Nancy's 2.0 GHz
    # Opterons pace the grid run), not communication.
    assert r_cluster.time / r_grid.time > 0.85
