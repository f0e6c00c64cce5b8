"""Tests for the fluid TCP connection against the paper's TCP-level numbers."""

import pytest

from repro.errors import TcpError
from repro.net import build_pair_testbed
from repro.sim import Environment
from repro.tcp import (
    BufferPolicy,
    DEFAULT_SYSCTLS,
    Fabric,
    TCP_STACK_ONEWAY,
    TUNED_SYSCTLS,
    TcpOptions,
)
from repro.units import KB, MB, to_usec, usec


def make_fabric(sysctls=DEFAULT_SYSCTLS, nodes_per_site=2):
    env = Environment()
    net = build_pair_testbed(nodes_per_site=nodes_per_site)
    fabric = Fabric(env, net, sysctls)
    return env, net, fabric


def one_way_latency(env, fabric, src, dst, nbytes, options=TcpOptions(), repeats=1):
    """Min one-way latency over ``repeats`` transmissions (paper §4.1)."""
    conn = fabric.connect(src, dst, options)
    results = []

    def runner():
        yield from conn.connect()
        for _ in range(repeats):
            t0 = env.now
            arrival = yield from conn.transmit(src, nbytes)
            results.append(arrival - t0)
            # wait for the (virtual) pong before the next ping
            yield env.timeout(arrival - env.now)

    env.process(runner())
    env.run()
    return min(results)


def steady_bandwidth_mbps(env, fabric, src, dst, nbytes, options=TcpOptions(), repeats=40):
    """Max per-message goodput over a stream of back-to-back messages."""
    conn = fabric.connect(src, dst, options)
    best = []

    def runner():
        yield from conn.connect()
        for _ in range(repeats):
            t0 = env.now
            arrival = yield from conn.transmit(src, nbytes)
            yield env.timeout(arrival - env.now)
            best.append(nbytes * 8.0 / (env.now - t0) / 1e6)

    env.process(runner())
    env.run()
    return max(best)


# --- latency: Table 4 TCP rows ---------------------------------------------------
def test_grid_one_byte_latency_is_5812_us():
    env, net, fabric = make_fabric()
    src = net.clusters["rennes"].nodes[0]
    dst = net.clusters["nancy"].nodes[0]
    latency = one_way_latency(env, fabric, src, dst, 1)
    assert to_usec(latency) == pytest.approx(5812, abs=2)


def test_cluster_one_byte_latency_is_41_us():
    env, net, fabric = make_fabric()
    a, b = net.clusters["rennes"].nodes[:2]
    latency = one_way_latency(env, fabric, a, b, 1)
    assert to_usec(latency) == pytest.approx(41, abs=1)


# --- bandwidth: Fig 3 / Fig 5 / Fig 6 TCP curves -----------------------------------
def test_cluster_default_reaches_940_mbps():
    env, net, fabric = make_fabric()
    a, b = net.clusters["rennes"].nodes[:2]
    bw = steady_bandwidth_mbps(env, fabric, a, b, 16 * MB, repeats=10)
    assert 900 <= bw <= 945


def test_grid_default_collapses_near_120_mbps():
    env, net, fabric = make_fabric()
    src = net.clusters["rennes"].nodes[0]
    dst = net.clusters["nancy"].nodes[0]
    bw = steady_bandwidth_mbps(env, fabric, src, dst, 16 * MB, repeats=10)
    # Fig. 3: no curve above 120 Mbps with default parameters.
    assert 80 <= bw <= 125


def test_grid_tuned_reaches_900_mbps():
    env, net, fabric = make_fabric(TUNED_SYSCTLS)
    src = net.clusters["rennes"].nodes[0]
    dst = net.clusters["nancy"].nodes[0]
    bw = steady_bandwidth_mbps(env, fabric, src, dst, 64 * MB, repeats=8)
    # Fig. 6: ~900 Mbps after buffer tuning.
    assert 850 <= bw <= 945


def test_grid_tuned_1mb_message_half_bandwidth():
    env, net, fabric = make_fabric(TUNED_SYSCTLS)
    src = net.clusters["rennes"].nodes[0]
    dst = net.clusters["nancy"].nodes[0]
    bw = steady_bandwidth_mbps(env, fabric, src, dst, MB, repeats=40)
    # Fig. 6: half bandwidth is only reached around 1 MB on the grid.
    assert 350 <= bw <= 650


def test_fixed_128k_buffers_limit_grid_bandwidth():
    env, net, fabric = make_fabric(TUNED_SYSCTLS)
    src = net.clusters["rennes"].nodes[0]
    dst = net.clusters["nancy"].nodes[0]
    options = TcpOptions(buffer_policy=BufferPolicy.fixed(128 * KB, 128 * KB))
    bw = steady_bandwidth_mbps(env, fabric, src, dst, 16 * MB, options, repeats=10)
    # OpenMPI without its mca knobs: stuck near 128kB/RTT = 90 Mbps.
    assert 70 <= bw <= 110


def test_slow_start_ramp_is_gradual():
    """Early messages are much slower than steady state (Fig. 9)."""
    env, net, fabric = make_fabric(TUNED_SYSCTLS)
    src = net.clusters["rennes"].nodes[0]
    dst = net.clusters["nancy"].nodes[0]
    conn = fabric.connect(src, dst, TcpOptions())
    samples = []

    def runner():
        yield from conn.connect()
        for _ in range(200):
            t0 = env.now
            arrival = yield from conn.transmit(src, MB)
            yield env.timeout(arrival - env.now)
            samples.append((env.now, MB * 8.0 / (env.now - t0) / 1e6))

    env.process(runner())
    env.run()
    first = samples[0][1]
    peak = max(bw for (t, bw) in samples)
    assert first < 0.5 * peak
    # Fig. 9a: raw TCP reaches 500 Mbps around 2 s and its maximum around
    # 5 s; the y-axis tops out near 600 Mbps for 1 MB messages.
    assert 500 <= peak <= 620
    t_500 = next(t for (t, bw) in samples if bw >= 500)
    assert 1.0 <= t_500 <= 3.5


def test_unpaced_sender_ramps_slower():
    """ss_cap divisor 2 (unpaced MPI) delays the ramp vs divisor 1."""

    def time_to_reach(options, target_mbps):
        env, net, fabric = make_fabric(TUNED_SYSCTLS)
        src = net.clusters["rennes"].nodes[0]
        dst = net.clusters["nancy"].nodes[0]
        conn = fabric.connect(src, dst, options)
        reach = []

        def runner():
            yield from conn.connect()
            for _ in range(300):
                t0 = env.now
                arrival = yield from conn.transmit(src, MB)
                yield env.timeout(arrival - env.now)
                bw = MB * 8.0 / (env.now - t0) / 1e6
                if bw >= target_mbps:
                    reach.append(env.now)
                    return

        env.process(runner())
        env.run()
        return reach[0] if reach else float("inf")

    paced = time_to_reach(TcpOptions(ss_cap_divisor=1.0), 500)
    unpaced = time_to_reach(
        TcpOptions(ss_cap_divisor=2.0, probe_loss_rounds=18), 500
    )
    assert paced < unpaced


def test_idle_restart_triggers_after_rto():
    env, net, fabric = make_fabric(TUNED_SYSCTLS)
    src = net.clusters["rennes"].nodes[0]
    dst = net.clusters["nancy"].nodes[0]
    conn = fabric.connect(src, dst, TcpOptions())

    def runner():
        yield from conn.connect()
        yield from conn.transmit(src, 4 * MB)
        yield env.timeout(5.0)  # long idle > RTO
        yield from conn.transmit(src, 4 * MB)

    env.process(runner())
    env.run()
    assert conn.forward.stats.idle_restarts == 1


def test_transmit_directions_independent():
    env, net, fabric = make_fabric()
    src = net.clusters["rennes"].nodes[0]
    dst = net.clusters["nancy"].nodes[0]
    conn = fabric.connect(src, dst, TcpOptions())
    times = {}

    def fwd():
        arrival = yield from conn.transmit(src, MB)
        times["fwd"] = arrival

    def rev():
        arrival = yield from conn.transmit(dst, MB)
        times["rev"] = arrival

    env.process(fwd())
    env.process(rev())
    env.run()
    # Full duplex: both directions proceed concurrently, same duration.
    assert times["fwd"] == pytest.approx(times["rev"], rel=1e-6)


def test_same_direction_transfers_serialise():
    env, net, fabric = make_fabric()
    a, b = net.clusters["rennes"].nodes[:2]
    conn = fabric.connect(a, b, TcpOptions())
    arrivals = []

    def sender():
        arrivals.append((yield from conn.transmit(a, MB)))

    env.process(sender())
    env.process(sender())
    env.run()
    # Head-of-line blocking: the second message arrives ~one serialisation
    # later, not at the same time.
    assert arrivals[1] - arrivals[0] > 0.8 * (MB * 8 / 1e9)


def test_negative_bytes_rejected():
    env, net, fabric = make_fabric()
    a, b = net.clusters["rennes"].nodes[:2]
    conn = fabric.connect(a, b, TcpOptions())

    def runner():
        yield from conn.transmit(a, -1)

    env.process(runner())
    with pytest.raises(TcpError):
        env.run()


def test_direction_unknown_endpoint_rejected():
    env, net, fabric = make_fabric()
    a, b = net.clusters["rennes"].nodes[:2]
    other = net.clusters["nancy"].nodes[0]
    conn = fabric.connect(a, b, TcpOptions())
    with pytest.raises(TcpError):
        conn.direction(other)


def test_fabric_per_cluster_sysctls():
    env, net, fabric = make_fabric()
    fabric.set_sysctls(TUNED_SYSCTLS, cluster="rennes")
    r = net.clusters["rennes"].nodes[0]
    n = net.clusters["nancy"].nodes[0]
    assert fabric.sysctls_for(r) is TUNED_SYSCTLS
    assert fabric.sysctls_for(n) is DEFAULT_SYSCTLS
    with pytest.raises(TcpError):
        fabric.set_sysctls(TUNED_SYSCTLS, cluster="mars")


def test_invalid_options():
    with pytest.raises(TcpError):
        TcpOptions(ss_cap_divisor=0.5)
    with pytest.raises(TcpError):
        TcpOptions(probe_loss_rounds=0)


def test_stack_constant():
    assert TCP_STACK_ONEWAY == pytest.approx(usec(12))
