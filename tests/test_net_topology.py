"""Tests for topology, routing and the Grid'5000 builders."""

import pytest

from repro.errors import NetworkConfigError
from repro.net import (
    GRID5000_RTT_MS,
    HOST_SPECS,
    Network,
    build_pair_testbed,
    build_ray2mesh_testbed,
)
from repro.net.grid5000 import INTRA_CLUSTER_RTT
from repro.units import Gbps, Mbps, msec, usec


def test_add_cluster_and_nodes():
    net = Network()
    c = net.add_cluster("x")
    nodes = c.add_nodes(4, gflops=2.0)
    assert [n.name for n in nodes] == ["x-0", "x-1", "x-2", "x-3"]
    assert all(n.gflops == 2.0 for n in nodes)
    assert len(net.nodes) == 4


def test_duplicate_cluster_rejected():
    net = Network()
    net.add_cluster("x")
    with pytest.raises(NetworkConfigError):
        net.add_cluster("x")


def test_node_lookup():
    net = Network()
    net.add_cluster("x").add_nodes(2)
    assert net.node("x-1").name == "x-1"
    with pytest.raises(NetworkConfigError):
        net.node("nope")


def test_intra_cluster_route():
    net = Network()
    c = net.add_cluster("x", intra_rtt=usec(41))
    a, b = c.add_nodes(2)
    route = net.route(a, b)
    assert not route.inter_site
    assert route.one_way_delay == pytest.approx(usec(20.5))
    assert route.rtt == pytest.approx(usec(41))
    assert route.pipes == (a.nic_tx, b.nic_rx)
    assert route.bottleneck_bps == Gbps(1)


def test_inter_site_route():
    net = Network()
    a = net.add_cluster("a").add_nodes(1)[0]
    b = net.add_cluster("b").add_nodes(1)[0]
    net.set_rtt("a", "b", msec(11.6))
    route = net.route(a, b)
    assert route.inter_site
    assert route.one_way_delay == pytest.approx(msec(5.8))
    assert len(route.pipes) == 4
    assert route.pipes[0] is a.nic_tx
    assert route.pipes[-1] is b.nic_rx


def test_route_to_self_rejected():
    net = Network()
    a = net.add_cluster("a").add_nodes(1)[0]
    with pytest.raises(NetworkConfigError):
        net.route(a, a)


def test_missing_rtt_rejected():
    net = Network()
    a = net.add_cluster("a").add_nodes(1)[0]
    b = net.add_cluster("b").add_nodes(1)[0]
    with pytest.raises(NetworkConfigError):
        net.route(a, b)


def test_route_cache_consistent():
    net = Network()
    a = net.add_cluster("a").add_nodes(1)[0]
    b = net.add_cluster("b").add_nodes(1)[0]
    net.set_rtt("a", "b", msec(10))
    r1 = net.route(a, b)
    assert net.route(a, b) is r1
    net.set_rtt("a", "b", msec(20))  # invalidates cache
    assert net.route(a, b).rtt == pytest.approx(msec(20))


def test_wan_access_bottleneck():
    net = Network()
    a = net.add_cluster("a", wan_access_bps=Mbps(100)).add_nodes(1)[0]
    b = net.add_cluster("b").add_nodes(1)[0]
    net.set_rtt("a", "b", msec(10))
    assert net.route(a, b).bottleneck_bps == Mbps(100)


def test_compute_seconds():
    net = Network()
    node = net.add_cluster("a").add_nodes(1, gflops=2.0)[0]
    assert node.compute_seconds(4e9) == pytest.approx(2.0)


def test_invalid_gflops():
    net = Network()
    c = net.add_cluster("a")
    with pytest.raises(NetworkConfigError):
        c.add_nodes(1, gflops=0)


# --- Grid'5000 builders ---------------------------------------------------------
def test_pair_testbed_defaults():
    net = build_pair_testbed(nodes_per_site=8)
    assert sorted(net.clusters) == ["nancy", "rennes"]
    assert len(net.clusters["rennes"].nodes) == 8
    r, n = net.clusters["rennes"].nodes[0], net.clusters["nancy"].nodes[0]
    assert net.rtt(r, n) == pytest.approx(msec(11.6))
    # 58 us wire RTT inside Rennes (Table 4's 41 us one-way TCP latency
    # minus the 12 us stack crossing, doubled).
    assert net.rtt(r, net.clusters["rennes"].nodes[1]) == pytest.approx(usec(58))


def test_pair_testbed_host_speeds_from_table3():
    net = build_pair_testbed()
    rennes_gflops = net.clusters["rennes"].nodes[0].gflops
    nancy_gflops = net.clusters["nancy"].nodes[0].gflops
    assert rennes_gflops == HOST_SPECS["rennes"].gflops
    assert nancy_gflops == HOST_SPECS["nancy"].gflops
    # Rennes (Opteron 248, 2.2 GHz) is faster than Nancy (246, 2.0 GHz).
    assert rennes_gflops > nancy_gflops


def test_pair_testbed_unknown_pair_rejected():
    with pytest.raises(NetworkConfigError):
        build_pair_testbed(sites=("rennes", "lille"))


def test_ray2mesh_testbed():
    net = build_ray2mesh_testbed()
    assert sorted(net.clusters) == ["nancy", "rennes", "sophia", "toulouse"]
    # Paper ordering: Nancy < Rennes, Toulouse < Sophia.
    speed = {s: net.clusters[s].nodes[0].gflops for s in net.clusters}
    assert speed["nancy"] < speed["toulouse"] <= speed["rennes"] < speed["sophia"]
    # All six RTTs declared.
    for pair in GRID5000_RTT_MS:
        a, b = sorted(pair)
        assert net.rtt(a, b) == pytest.approx(msec(GRID5000_RTT_MS[pair]))


def test_rtt_values_match_paper_quotes():
    # §3.2: "about 19 ms for the link Rennes-Sophia", 11.6 ms Rennes-Nancy.
    assert GRID5000_RTT_MS[frozenset(("rennes", "nancy"))] == 11.6
    assert 19.0 <= GRID5000_RTT_MS[frozenset(("rennes", "sophia"))] <= 19.9


def test_intra_rtt_constant_matches_table4():
    # One-way wire latency (29 us) + one-way stack (12 us) = Table 4's 41 us.
    from repro.tcp import TCP_STACK_ONEWAY

    assert INTRA_CLUSTER_RTT / 2 + TCP_STACK_ONEWAY == pytest.approx(usec(41))
