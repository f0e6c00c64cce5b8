"""Tuning tests (§4.2, Table 5): the buffer sizing and the threshold sweep."""

import itertools

import pytest

from repro.apps.pingpong import tcp_pingpong
from repro.experiments.environments import (
    GRID_BUFFER_BYTES,
    GRID_EAGER_THRESHOLD,
    fully_tuned_environment,
    tcp_tuned_environment,
)
from repro.impls import IMPLEMENTATION_ORDER, get_implementation
from repro.net import build_pair_testbed, build_ray2mesh_testbed
from repro.tcp import TUNED_SYSCTLS
from repro.tcp.buffers import BufferPolicy
from repro.tcp.connection import TcpOptions
from repro.tuning import measure_ideal_threshold, threshold_sweep
from repro.tuning.sweep import ABOVE_MAX
from repro.units import Gbps, KB, MB, Size, msec


def test_bdp_rennes_nancy():
    """§4.2.1: 'the socket buffer has to be set to at least 1.45 MB
    (RTT=11.6 ms, bandwidth=1 Gbps)', and the 4 MB the paper sets 'for
    compatibility with the rest of the grid' holds every inter-site
    path's bandwidth-delay product (the worst, Nancy-Sophia at 19.9 ms,
    needs about 2.5 MB)."""
    net = build_ray2mesh_testbed()
    first = {name: cluster.nodes[0] for name, cluster in net.clusters.items()}

    def bdp_bytes(a: str, b: str) -> float:
        route = net.route(first[a], first[b])
        return route.rtt * route.bottleneck_bps / 8.0

    assert bdp_bytes("rennes", "nancy") == pytest.approx(1_450_000, rel=0.01)
    pairs = list(itertools.combinations(sorted(first), 2))
    assert len(pairs) == 6
    for a, b in pairs:
        assert bdp_bytes(a, b) <= GRID_BUFFER_BYTES, (a, b)
    assert max(bdp_bytes(a, b) for a, b in pairs) > GRID_BUFFER_BYTES / 2


def test_threshold_sweep_grid_eager_always_wins():
    """Table 5: with pre-posted receives, eager wins at every size on the
    grid, so the ideal threshold is 65 MB (32 MB for OpenMPI)."""
    net = build_pair_testbed(nodes_per_site=1)
    a = net.clusters["rennes"].nodes[0]
    b = net.clusters["nancy"].nodes[0]
    sizes = [256 * KB, MB, 4 * MB]
    for name, expected in (("mpich2", 65 * MB), ("openmpi", 32 * MB)):
        impl = get_implementation(name).with_socket_buffers(4 * MB)
        ideal = measure_ideal_threshold(
            impl, net, a, b, sizes=sizes, repeats=4, sysctls=TUNED_SYSCTLS
        )
        assert ideal == expected, name


def test_threshold_sweep_points_show_rndv_penalty():
    net = build_pair_testbed(nodes_per_site=1)
    a = net.clusters["rennes"].nodes[0]
    b = net.clusters["nancy"].nodes[0]
    impl = get_implementation("mpich2")
    points = threshold_sweep(
        impl, net, a, b, sizes=[512 * KB], repeats=5, sysctls=TUNED_SYSCTLS
    )
    (point,) = points
    assert point.eager_wins
    # the WAN handshake costs real bandwidth at this size
    assert point.eager_bandwidth_mbps > 1.2 * point.rndv_bandwidth_mbps


def test_above_max_constant():
    assert ABOVE_MAX == 65 * MB


# --- the buffer size against the declared topology ---------------------------------
def bdp_from(rtt_seconds: float, bandwidth_bps: float) -> float:
    """Bandwidth-delay product in bytes."""
    return rtt_seconds * bandwidth_bps / 8.0


def _inter_site_bdps(net) -> dict[tuple[str, str], float]:
    """Declared RTT x bottleneck capacity, in bytes, per inter-site pair."""
    first = {name: cluster.nodes[0] for name, cluster in net.clusters.items()}
    bdps = {}
    for a, b in itertools.combinations(sorted(first), 2):
        route = net.route(first[a], first[b])
        bdps[(a, b)] = bdp_from(route.rtt, route.bottleneck_bps)
    return bdps


def test_advise_buffer_is_4mb_for_the_paper_testbed():
    """The paper sets 4 MB 'for compatibility with the rest of the grid':
    the smallest power-of-two MB count holding the worst inter-site BDP
    of the four-site testbed (Nancy-Sophia, about 2.5 MB)."""
    worst = max(_inter_site_bdps(build_ray2mesh_testbed()).values())
    assert GRID_BUFFER_BYTES == 4 * MB
    assert GRID_BUFFER_BYTES / 2 < worst <= GRID_BUFFER_BYTES


def test_advise_buffer_pair_testbed():
    """On the two-site testbed the 4 MB buffer holds the Rennes-Nancy BDP,
    and the TCP-tuned state applies exactly that size to a fixed-buffer
    implementation."""
    (bdp,) = _inter_site_bdps(build_pair_testbed()).values()
    assert bdp == pytest.approx(bdp_from(msec(11.6), Gbps(1)), rel=0.01)
    assert bdp <= GRID_BUFFER_BYTES
    assert GRID_BUFFER_BYTES % MB == 0
    openmpi = tcp_tuned_environment().impl("openmpi")
    assert openmpi.buffer_policy.sndbuf == GRID_BUFFER_BYTES
    assert openmpi.buffer_policy.rcvbuf == GRID_BUFFER_BYTES


def test_worst_inter_site_pair_picks_highest_rtt():
    """The path that sizes the buffer is the highest-RTT one, Nancy-Sophia."""
    net = build_ray2mesh_testbed()
    bdps = _inter_site_bdps(net)
    worst = max(bdps, key=bdps.get)
    assert set(worst) == {"nancy", "sophia"}
    assert net.rtt(*worst) == max(net.rtt(a, b) for a, b in bdps)
    assert net.rtt(*worst) == pytest.approx(msec(19.93), rel=0.01)


# --- the tuned environments ---------------------------------------------------------
def test_tune_for_grid():
    """§4.2's tuning as the fully-tuned environment applies it: 4 MB
    buffers for OpenMPI (the only fixed-buffer implementation) and Table
    5's threshold, clamped to OpenMPI's 32 MB maximum."""
    env = fully_tuned_environment()
    assert env.sysctls == TUNED_SYSCTLS
    openmpi = env.impl("openmpi")
    assert openmpi.buffer_policy.sndbuf == 4 * MB
    assert openmpi.eager_threshold == 32 * MB  # clamped to its maximum
    mpich2 = env.impl("mpich2")
    assert mpich2.eager_threshold == GRID_EAGER_THRESHOLD == 65 * MB
    assert mpich2.buffer_policy.mode == "autotune"  # kernel-governed


def test_recipe_and_simulation_agree_for_every_impl():
    """The tuning states build on each other: fully-tuned is TCP-tuned
    plus the eager threshold, for every implementation, and an oversized
    threshold request clamps to the implementation's maximum, as Table
    5's does."""
    tcp, full = tcp_tuned_environment(), fully_tuned_environment()
    assert tcp.sysctls == full.sysctls == TUNED_SYSCTLS
    for name in IMPLEMENTATION_ORDER:
        stepped = tcp.impl(name).with_eager_threshold(GRID_EAGER_THRESHOLD)
        assert full.impl(name) == stepped, name
        ceiling = get_implementation(name).max_eager_threshold
        assert full.impl(name).eager_threshold == min(GRID_EAGER_THRESHOLD, ceiling)
        big = get_implementation(name).with_eager_threshold(Size(128 * MB))
        assert big.eager_threshold == min(128 * MB, ceiling), name


def test_advise_eager_threshold_reproduces_table5():
    """Table 5 from measurement alone: 65 MB everywhere, 32 MB for
    OpenMPI (its eager-limit maximum)."""
    net = build_pair_testbed(nodes_per_site=1)
    a = net.clusters["rennes"].nodes[0]
    b = net.clusters["nancy"].nodes[0]
    expected = {
        "mpich2": 65 * MB,
        "gridmpi": 65 * MB,
        "madeleine": 65 * MB,
        "openmpi": 32 * MB,
    }
    sizes = [256 * KB, MB, 4 * MB]
    for name in IMPLEMENTATION_ORDER:
        impl = get_implementation(name).with_socket_buffers(GRID_BUFFER_BYTES)
        ideal = measure_ideal_threshold(
            impl, net, a, b, sizes=sizes, repeats=2, sysctls=TUNED_SYSCTLS
        )
        assert ideal == expected[name], name
        assert ideal == get_implementation(name).with_eager_threshold(
            GRID_EAGER_THRESHOLD
        ).eager_threshold, name


# --- measuring the paths ------------------------------------------------------------
#: the large message of the bandwidth probe: slow start is amortised, so
#: its extra round-trip time over the 1-byte probe is serialisation
PROBE_BANDWIDTH_BYTES = 256 * MB


def probe_inter_site_paths(net) -> dict[tuple[str, str], tuple[float, float]]:
    """Raw-TCP pingpong between the first nodes of every site pair:
    ``(rtt_seconds, bandwidth_bps)``.  The 1-byte minimum round trip is
    the RTT; the extra time of the large message is pure serialisation
    (both directions), so the fixed latency cancels out of the bandwidth."""
    window = BufferPolicy.fixed(32 * MB, 32 * MB)  # ``iperf -w`` style
    probes = {}
    for a, b in itertools.combinations(sorted(net.clusters), 2):
        curve = tcp_pingpong(
            net,
            net.clusters[a].nodes[0],
            net.clusters[b].nodes[0],
            sizes=(1, PROBE_BANDWIDTH_BYTES),
            repeats=3,
            sysctls=TUNED_SYSCTLS,
            options=TcpOptions(buffer_policy=window),
        )
        rtt = curve.points[0].min_rtt
        extra = curve.points[1].min_rtt - rtt
        probes[(a, b)] = (rtt, PROBE_BANDWIDTH_BYTES * 8.0 * 2.0 / extra)
    return probes


def test_probe_network_measures_every_inter_site_pair():
    probes = probe_inter_site_paths(build_ray2mesh_testbed())
    assert len(probes) == 6  # C(4,2) site pairs, all routable
    worst = max(probes, key=lambda pair: probes[pair][0])
    assert set(worst) == {"nancy", "sophia"}
    rtt, bandwidth = probes[worst]
    assert rtt == pytest.approx(msec(19.93), rel=0.01)
    # steady-state goodput, not the window-limited ramp
    assert bandwidth > 900e6


def test_measured_buffer_advice_matches_declared_topology():
    """Measured bandwidth-delay products track the declared ones (goodput
    sits just below the wire capacity), so measurement reaches the same
    4 MB the paper derives: the smallest power-of-two MB count holding
    the worst measured path."""
    net = build_ray2mesh_testbed()
    declared = _inter_site_bdps(net)
    measured = {
        pair: bdp_from(rtt, bandwidth)
        for pair, (rtt, bandwidth) in probe_inter_site_paths(net).items()
    }
    assert set(measured) == set(declared)
    for pair, bdp in measured.items():
        assert 0.9 * declared[pair] < bdp <= declared[pair], pair
    assert GRID_BUFFER_BYTES / 2 < max(measured.values()) <= GRID_BUFFER_BYTES
