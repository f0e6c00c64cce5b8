"""Ablation benchmarks: isolate each design choice the paper credits.

Beyond the paper's figures, these quantify the individual mechanisms:
GridMPI's collective algorithms, pacing, the threshold tuning and the
buffer tuning.
"""

from repro.apps.pingpong import mpi_pingpong, mpi_stream
from repro.experiments.environments import get_environment, grid_placement, pingpong_pair
from repro.impls import get_implementation
from repro.npb import run_npb
from repro.tcp import TUNED_MAX_ONLY_SYSCTLS, TUNED_SYSCTLS
from repro.units import MB


def _ft_time(impl, cls="A"):
    env = get_environment("fully_tuned")
    network, placement = grid_placement(16)
    return run_npb(
        "ft", cls, network, impl, placement, sysctls=env.sysctls,
        sample_iters=3,
    ).time


def test_van_de_geijn_bcast_ablation(benchmark, fast, report):
    """GridMPI's FT win disappears with a binomial broadcast."""
    env = get_environment("fully_tuned")
    gridmpi = env.impl("gridmpi")
    ablated = gridmpi.with_collective("bcast", "binomial")

    def run():
        return _ft_time(gridmpi), _ft_time(ablated)

    with_vdg, without = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nFT on the grid: Van de Geijn {with_vdg:.2f}s vs binomial {without:.2f}s")
    assert with_vdg < without


def test_pacing_ablation(benchmark, fast, report):
    """Pacing (ss_cap divisor 1) vs unpaced: time to 500 Mbps on a 1 MB
    stream (Fig. 9's mechanism isolated)."""
    net, a, b = pingpong_pair("grid")
    paced = get_implementation("gridmpi")
    unpaced = get_implementation("mpich2").with_eager_threshold(65 * MB)

    def time_to_500(impl):
        samples = mpi_stream(net, impl, a, b, nbytes=MB, count=250, sysctls=TUNED_SYSCTLS)
        for s in samples:
            if s.bandwidth_mbps >= 500:
                return s.time
        return float("inf")

    def run():
        return time_to_500(paced), time_to_500(unpaced)

    t_paced, t_unpaced = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\n1MB stream to 500 Mbps: paced {t_paced:.2f}s vs unpaced {t_unpaced:.2f}s")
    assert t_paced < t_unpaced


def test_buffer_sweep(benchmark, fast, report):
    """Bandwidth vs socket buffer size: the BDP is the knee."""
    from repro.tcp.sysctl import SysctlConfig

    net, a, b = pingpong_pair("grid")
    impl = get_implementation("mpich2").with_eager_threshold(65 * MB)
    sizes_kb = [128, 512, 2048, 4096] if fast else [64, 128, 256, 512, 1024, 2048, 4096, 8192]

    def run():
        results = {}
        for kb in sizes_kb:
            sysctls = SysctlConfig().with_buffer_max(kb * 1024).with_buffer_default(kb * 1024)
            curve = mpi_pingpong(
                net, impl, a, b, sizes=[16 * MB], repeats=12, sysctls=sysctls
            )
            results[kb] = curve.max_bandwidth_mbps
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\nbuffer sweep (kB -> Mbps):", {k: round(v) for k, v in results.items()})
    # monotone non-decreasing, saturating above the ~1.45 MB BDP
    values = list(results.values())
    assert values == sorted(values)
    assert results[sizes_kb[-1]] > 2.5 * results[sizes_kb[0]]


def test_middle_value_matters_for_gridmpi(benchmark, fast, report):
    """§4.2.1: raising only the sysctl maxima fixes MPICH2 but not GridMPI."""
    net, a, b = pingpong_pair("grid")
    size = 16 * MB

    def bandwidth(impl_name, sysctls):
        impl = get_implementation(impl_name)
        curve = mpi_pingpong(net, impl, a, b, sizes=[size], repeats=12, sysctls=sysctls)
        return curve.max_bandwidth_mbps

    def run():
        return (
            bandwidth("mpich2", TUNED_MAX_ONLY_SYSCTLS),
            bandwidth("gridmpi", TUNED_MAX_ONLY_SYSCTLS),
            bandwidth("gridmpi", TUNED_SYSCTLS),
        )

    mpich2_max_only, gridmpi_max_only, gridmpi_full = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    print(
        f"\nmax-only sysctls: MPICH2 {mpich2_max_only:.0f} Mbps, GridMPI "
        f"{gridmpi_max_only:.0f} Mbps; with middle value: GridMPI {gridmpi_full:.0f} Mbps"
    )
    assert mpich2_max_only > 3 * gridmpi_max_only  # GridMPI stuck at 87 kB rwnd
    assert gridmpi_full > 5 * gridmpi_max_only
