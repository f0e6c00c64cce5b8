"""Tests for the fluid flow-level bandwidth model."""

import math
import random

import pytest

from repro.errors import NetworkConfigError
from repro.net import Flow, FluidNetwork, Pipe
from repro.sim import Environment
from repro.units import Gbps, MB, Mbps


@pytest.fixture()
def env():
    return Environment()


@pytest.fixture()
def net(env):
    return FluidNetwork(env)


def run_flow(env, net, pipes, nbytes, cap=math.inf):
    flow = net.start_flow("f", pipes, nbytes, rate_cap_bps=cap)
    env.run(until=flow.done)
    return env.now


def test_single_flow_full_capacity(env, net):
    pipe = Pipe("p", Gbps(1))
    elapsed = run_flow(env, net, [pipe], MB)
    assert elapsed == pytest.approx(MB * 8 / 1e9)


def test_flow_respects_rate_cap(env, net):
    pipe = Pipe("p", Gbps(1))
    elapsed = run_flow(env, net, [pipe], MB, cap=Mbps(100))
    assert elapsed == pytest.approx(MB * 8 / 100e6)


def test_bottleneck_is_slowest_pipe(env, net):
    fast = Pipe("fast", Gbps(10))
    slow = Pipe("slow", Mbps(100))
    elapsed = run_flow(env, net, [fast, slow], MB)
    assert elapsed == pytest.approx(MB * 8 / 100e6)


def test_zero_byte_flow_completes_immediately(env, net):
    pipe = Pipe("p", Gbps(1))
    flow = net.start_flow("f", [pipe], 0)
    assert flow.done.triggered
    assert not pipe.flows


def test_two_flows_share_fairly(env, net):
    pipe = Pipe("p", Gbps(1))
    f1 = net.start_flow("f1", [pipe], MB)
    f2 = net.start_flow("f2", [pipe], MB)
    env.run(until=f1.done)
    t1 = env.now
    env.run(until=f2.done)
    t2 = env.now
    # Both at 500 Mbps: each finishes in ~2x the solo time, together.
    assert t1 == pytest.approx(MB * 8 / 0.5e9)
    assert t2 == pytest.approx(t1)


def test_departure_releases_bandwidth(env, net):
    pipe = Pipe("p", Gbps(1))
    small = net.start_flow("small", [pipe], MB)
    big = net.start_flow("big", [pipe], 3 * MB)
    env.run(until=small.done)
    t_small = env.now
    env.run(until=big.done)
    t_big = env.now
    # Phase 1: both at 500 Mbps until small (1MB) is done at t=16.78ms.
    assert t_small == pytest.approx(MB * 8 / 0.5e9)
    # big sent 1MB in phase 1, the last 2MB at full rate.
    expected = t_small + 2 * MB * 8 / 1e9
    assert t_big == pytest.approx(expected)


def test_capped_flow_leaves_slack_to_others(env, net):
    pipe = Pipe("p", Gbps(1))
    capped = net.start_flow("capped", [pipe], 10 * MB, rate_cap_bps=Mbps(100))
    greedy = net.start_flow("greedy", [pipe], MB)
    env.run(until=greedy.done)
    # greedy gets 900 Mbps (progressive filling redistributes the slack).
    assert env.now == pytest.approx(MB * 8 / 900e6)
    assert capped.rate_bps == pytest.approx(Mbps(100))


def test_rate_cap_update_mid_flight(env, net):
    pipe = Pipe("p", Gbps(1))
    flow = net.start_flow("f", [pipe], 2 * MB, rate_cap_bps=Mbps(100))

    def raiser():
        yield env.timeout(0.08)  # ~1MB sent at 100 Mbps
        net.set_rate_cap(flow, Gbps(1))

    env.process(raiser())
    env.run(until=flow.done)
    sent_phase1 = 100e6 * 0.08 / 8  # bytes
    expected = 0.08 + (2 * MB - sent_phase1) * 8 / 1e9
    assert env.now == pytest.approx(expected, rel=1e-6)


def test_abort_flow_fails_done_event(env, net):
    pipe = Pipe("p", Gbps(1))
    flow = net.start_flow("f", [pipe], 100 * MB)

    def aborter():
        yield env.timeout(0.01)
        net.abort_flow(flow, RuntimeError("link down"))

    def waiter(log):
        try:
            yield flow.done
        except RuntimeError as exc:
            log.append(str(exc))

    log = []
    env.process(aborter())
    env.process(waiter(log))
    env.run()
    assert log == ["link down"]
    assert not pipe.flows


def test_three_flows_two_pipes_maxmin(env, net):
    # a: pipe1 only; b: pipe1+pipe2; c: pipe2 only. pipe1=1G, pipe2=500M.
    p1, p2 = Pipe("p1", Gbps(1)), Pipe("p2", Mbps(500))
    fa = net.start_flow("a", [p1], 100 * MB)
    fb = net.start_flow("b", [p1, p2], 100 * MB)
    fc = net.start_flow("c", [p2], 100 * MB)
    env.run(until=env.timeout(0.001))
    # Max-min: b and c share p2 at 250 Mbps each; a takes the rest of p1.
    assert fb.rate_bps == pytest.approx(Mbps(250))
    assert fc.rate_bps == pytest.approx(Mbps(250))
    assert fa.rate_bps == pytest.approx(Mbps(750))


def test_flow_needs_a_pipe(env, net):
    with pytest.raises(NetworkConfigError):
        net.start_flow("f", [], 10)


def test_negative_size_rejected(env, net):
    with pytest.raises(NetworkConfigError):
        net.start_flow("f", [Pipe("p", Gbps(1))], -1)


def test_invalid_cap_rejected(env, net):
    with pytest.raises(NetworkConfigError):
        net.start_flow("f", [Pipe("p", Gbps(1))], 10, rate_cap_bps=0)


def test_set_pipe_capacity_mid_flight(env, net):
    pipe = Pipe("wan", 1000.0)
    flow = net.start_flow("f", [pipe], nbytes=1000)
    env.run(until=2.0)  # 2000 of 8000 bits done
    net.set_pipe_capacity(pipe, 100.0)  # the link flaps to 10%
    assert flow.rate_bps == pytest.approx(100.0)
    env.run(until=32.0)  # 3000 bits at the degraded rate
    net.set_pipe_capacity(pipe, 1000.0)  # ... and recovers
    env.run(until=flow.done)
    # 2000 + 3000 bits before recovery, 3000 after at full rate
    assert env.now == pytest.approx(35.0)
    assert flow.done.triggered


def test_set_pipe_capacity_rejects_nonpositive(env, net):
    pipe = Pipe("wan", 1000.0)
    net.start_flow("f", [pipe], nbytes=1000)
    with pytest.raises(NetworkConfigError):
        net.set_pipe_capacity(pipe, 0.0)
    with pytest.raises(NetworkConfigError):
        net.set_pipe_capacity(pipe, -10.0)


def test_pipe_invalid_capacity():
    with pytest.raises(NetworkConfigError):
        Pipe("p", 0)


def test_many_sequential_flows_cleanup(env, net):
    pipe = Pipe("p", Gbps(1))

    def sender():
        for _ in range(100):
            flow = net.start_flow("f", [pipe], 1024)
            yield flow.done

    env.process(sender())
    env.run()
    assert not net.flows
    assert not pipe.flows
    assert env.now == pytest.approx(100 * 1024 * 8 / 1e9)


# -- differential oracle: incremental allocator vs a global solve -------------
#
# The incremental allocator must agree with a whole-network progressive
# filling on arbitrary workload histories: flow starts and finishes, rate cap
# moves, capacity changes and link flaps.  The oracle below is the solver the
# incremental one replaced, rewritten as a pure function of flow and pipe
# snapshots.  Rates may differ by float ulps (the two solvers associate the
# fill arithmetic differently, and the incremental one keeps a rate whose
# change is within 1e-12 relative).

_EPS = 1e-12


def progressive_filling(flows, capacities):
    """Max-min fair rates with per-flow caps, solved over the whole network.

    ``flows`` holds ``(uid, pipe indices, rate cap)`` snapshots and
    ``capacities`` the pipe capacities by index; returns ``{uid: rate}``.
    All flows grow by the same increment until a pipe saturates or a flow
    hits its cap, which freezes them; repeat until every flow is frozen.
    """
    route = {uid: pipes for uid, pipes, _ in flows}
    cap = {uid: rate_cap for uid, _, rate_cap in flows}
    level = dict.fromkeys(route, 0.0)
    active = set(route)
    members = {}
    for uid, pipes, _ in flows:
        for pipe in pipes:
            members.setdefault(pipe, []).append(uid)
    remaining = {pipe: capacities[pipe] for pipe in members}

    while active:
        counts = {
            pipe: sum(1 for uid in uids if uid in active) for pipe, uids in members.items()
        }
        increment = min(
            [remaining[pipe] / n for pipe, n in counts.items() if n]
            + [cap[uid] - level[uid] for uid in active]
        )
        assert math.isfinite(increment), "every flow crosses a finite pipe"
        for uid in active:
            level[uid] += increment
        for pipe, n in counts.items():
            remaining[pipe] -= increment * n
        # The cap test is relative, like the pipe test: ``level += (cap -
        # level)`` can undershoot the cap by an ulp of the cap.
        saturated = {
            pipe
            for pipe in members
            if remaining[pipe] <= _EPS * capacities[pipe] + _EPS
        }
        frozen = {
            uid
            for uid in active
            if level[uid] >= cap[uid] * (1.0 - _EPS) - _EPS
            or any(pipe in saturated for pipe in route[uid])
        }
        if not frozen:
            break  # numerical corner: freeze everything to guarantee progress
        active -= frozen
    return level


def _check_against_oracle(network, pipes, when):
    index = {pipe: i for i, pipe in enumerate(pipes)}
    live = sorted(network.flows, key=lambda f: f.uid)
    expected = progressive_filling(
        [(f.uid, tuple(index[p] for p in f.pipes), f.rate_cap_bps) for f in live],
        [pipe.capacity_bps for pipe in pipes],
    )
    for flow in live:
        assert flow.rate_bps == pytest.approx(
            expected[flow.uid], rel=1e-12, abs=1e-9
        ), f"rate of flow {flow.uid} diverges from the oracle {when}"


def _check_plans(network, pipes):
    """The pipe -> plan map holds exact components: each pipe that carries
    live flows maps to the plan holding exactly its component, each plan's
    live flows are connected, and the plans partition ``network.flows``."""
    assert set(network._plans) == {pipe for pipe in pipes if pipe.flows}
    plans = {id(plan): plan for plan in network._plans.values()}
    covered = []
    for plan in plans.values():
        flows = list(plan.flow_index)
        assert flows == sorted(flows, key=lambda f: f.uid)
        reached, stack = {flows[0]}, [flows[0]]
        while stack:
            for pipe in stack.pop().pipes:
                assert network._plans[pipe] is plan
                for other in pipe.flows:
                    if other not in reached:
                        reached.add(other)
                        stack.append(other)
        assert reached == set(flows), "a plan holds more than one component"
        covered += flows
    assert len(covered) == len(set(covered)) and set(covered) == network.flows


def _drive_workload(seed, sparse=False):
    """Run a randomized flow history, checking every rate against the
    oracle after every operation and every completion; returns the
    number of checks.

    ``sparse`` spreads short routes over many pipes, so most components
    hold zero or one live flow (the closed-form solve); caps then often
    equal a route pipe's capacity exactly, and some routes list a pipe
    twice."""
    env = Environment()
    network = FluidNetwork(env)
    rng = random.Random(seed)
    capacities = [1e8, 2.5e8, 9.37e8, 1e9, 1e10]
    pipes = [
        Pipe(f"p{i}", rng.choice(capacities))
        for i in range(rng.randint(10, 14) if sparse else rng.randint(3, 7))
    ]
    started = []
    checks = []

    def check(when):
        _check_against_oracle(network, pipes, when)
        _check_plans(network, pipes)
        # stale completion entries never outgrow the live population
        assert len(network._due) <= 2 * len(network.flows) + 65
        checks.append(when)

    def pick_route():
        if not sparse:
            return rng.sample(pipes, rng.randint(1, min(3, len(pipes))))
        route = rng.sample(pipes, rng.randint(1, 2))
        if rng.random() < 0.15:
            route.append(route[0])  # the route crosses one pipe twice
        return route

    def pick_cap(route):
        if sparse and rng.random() < 0.4:
            return rng.choice(route).capacity_bps  # cap == capacity tie
        return math.inf if rng.random() < 0.3 else rng.uniform(1e6, 2e9)

    def script():
        counter = 0
        for step in range(60):
            yield env.timeout(rng.uniform(1e-4, 5e-3))
            dice = rng.random()
            live = [f for f in started if f in network.flows]
            if dice < 0.5 or not live:
                counter += 1
                route = pick_route()
                cap = pick_cap(route)
                nbytes = rng.uniform(1e3, 2e7)
                flow = network.start_flow(
                    f"w{counter}", route, nbytes, rate_cap_bps=cap
                )
                flow.done.callbacks.append(
                    lambda _ev, name=flow.name: check(f"after {name} completed")
                )
                started.append(flow)
            elif dice < 0.75:
                flow = live[rng.randrange(len(live))]
                network.set_rate_cap(flow, pick_cap(flow.pipes))
            elif dice < 0.9:
                pipe = pipes[rng.randrange(len(pipes))]
                network.set_pipe_capacity(pipe, rng.choice(capacities))
            else:
                flow = live[rng.randrange(len(live))]
                flow.done._defused = True  # the abort is the point
                network.abort_flow(flow, RuntimeError("link flap"))
            check(f"after op {step}")

    env.process(script())
    # Generous horizon: a 1 Mbps cap on a 20 MB flow needs ~160 s of
    # virtual time, and virtual seconds are cheap once the churn stops.
    env.run(until=300.0)
    assert not network.flows, "workload must drain within the horizon"
    return len(checks)


@pytest.mark.parametrize("seed", range(10))
def test_incremental_allocator_matches_legacy_oracle(seed):
    # 60 operations, plus one check per flow that finished or aborted
    assert _drive_workload(seed) > 60


@pytest.mark.parametrize("seed", range(6))
def test_small_components_match_legacy_oracle(seed):
    assert _drive_workload(seed, sparse=True) > 60


@pytest.mark.parametrize("seed", range(20))
def test_closed_form_is_bit_identical_to_progressive_filling(seed):
    """A lone flow's closed-form rate equals what filling computes, to
    the bit, including a cap equal to the smallest capacity."""
    rng = random.Random(seed)
    env = Environment()
    net = FluidNetwork(env)
    route = [
        Pipe(f"p{i}", rng.choice([1e8, 9.37e8, 1e9, 2.5e10 / 3]))
        for i in range(rng.randint(1, 4))
    ]
    narrowest = min(p.capacity_bps for p in route)
    cap = rng.choice([math.inf, narrowest, rng.uniform(1e7, 2e10)])
    flow = net.start_flow("f", route, MB, rate_cap_bps=cap)
    plan = net._plans[route[0]]
    live = [plan.flow_index[flow]]
    assert net._closed_form(plan) == [(flow, flow.rate_bps)]
    assert net._fill(plan, live)[live[0]] == flow.rate_bps
    assert flow.rate_bps == min(cap, narrowest)


def test_route_listing_a_pipe_twice_takes_the_full_solve(env, net):
    pipe = Pipe("p", Gbps(1))
    flow = net.start_flow("f", [pipe, Pipe("q", Gbps(10)), pipe], MB)
    assert net._closed_form(net._plans[pipe]) is None
    assert flow.rate_bps == Gbps(1) / 2  # two slots on one pipe


def test_completion_pops_bounded_by_recomputations_plus_flows():
    """One engine callback per network: rate churn on many flows must not
    cost one queue entry per re-armed completion."""
    from repro.sim.core import Call, install_trace_sink, remove_trace_sink

    env = Environment()
    net = FluidNetwork(env)
    rng = random.Random(7)
    pipes = [Pipe(f"p{i}", rng.choice([1e8, 1e9])) for i in range(4)]
    timer_pops = []

    def sink(tick, priority, seq, entry):
        if type(entry) is Call and entry.fn == net._on_timer:
            timer_pops.append(tick)

    def arrivals():
        for i in range(120):
            yield env.timeout(rng.uniform(1e-5, 2e-3))
            route = rng.sample(pipes, rng.randint(1, 3))
            net.start_flow(f"f{i}", route, rng.uniform(1e4, 5e6))

    env.process(arrivals())
    install_trace_sink(sink)
    try:
        env.run()
    finally:
        remove_trace_sink(sink)
    assert not net.flows
    assert 0 < len(timer_pops) <= net.recomputations + 120


def test_incremental_reuses_component_plan(env, net):
    """Steady churn on one component must not rebuild the plan each time."""
    pipe = Pipe("shared", Gbps(1))
    flows = [net.start_flow(f"f{i}", [pipe], 100 * MB) for i in range(8)]
    plan = net._plans[pipe]
    for i, flow in enumerate(flows):
        net.set_rate_cap(flow, Mbps(50 + i))
    assert net._plans[pipe] is plan, "cap churn inside the component rebuilt the plan"
    assert sorted(f.uid for f in plan.flow_index) == [f.uid for f in flows]


# -- exact component plans ------------------------------------------------------


def test_departing_bridge_splits_and_each_side_solves_alone(env, net):
    a, b = Pipe("a", Gbps(1)), Pipe("b", Gbps(1))
    left = net.start_flow("left", [a], 100 * MB)
    right = net.start_flow("right", [b], 100 * MB)
    bridge = net.start_flow("bridge", [b, a], MB)
    assert net._plans[a] is net._plans[b]
    env.run(until=bridge.done)
    assert net._plans[a] is not net._plans[b]
    assert list(net._plans[a].flow_index) == [left]
    assert list(net._plans[b].flow_index) == [right]
    assert left.rate_bps == right.rate_bps == Gbps(1)
    # the walk starts from ``b``, but the parts re-arm in uid order
    assert 0 < left._arm < right._arm

    env.run(until=env.now + 0.01)
    state = (right.remaining_bits, right._last_update, right._arm)
    rounds = net.solve_rounds
    net.set_rate_cap(left, Mbps(100))
    assert net.solve_rounds == rounds + 1
    assert left.rate_bps == Mbps(100)
    assert (right.remaining_bits, right._last_update, right._arm) == state


def test_departure_that_keeps_the_component_connected_keeps_its_plan(env, net):
    a, b = Pipe("a", Gbps(1)), Pipe("b", Gbps(1))
    net.start_flow("left", [a], 100 * MB)
    net.start_flow("right", [b], 100 * MB)
    short = net.start_flow("short", [a, b], MB)
    net.start_flow("long", [a, b], 100 * MB)
    plan = net._plans[a]
    env.run(until=short.done)
    assert net._plans[a] is plan and net._plans[b] is plan
    assert short not in plan.flow_index


def test_arriving_bridge_merges_two_components(env, net):
    a, b, c = Pipe("a", Gbps(1)), Pipe("b", Gbps(1)), Pipe("c", Gbps(10))
    left = net.start_flow("left", [a], 100 * MB)
    right = net.start_flow("right", [b, c], 100 * MB)
    assert net._plans[a] is not net._plans[b]
    bridge = net.start_flow("bridge", [a, b], 100 * MB)
    plan = net._plans[a]
    assert net._plans[b] is plan and net._plans[c] is plan
    assert list(plan.flow_index) == [left, right, bridge]
    assert left.rate_bps == right.rate_bps == bridge.rate_bps == Gbps(1) / 2


def test_solve_leaves_other_components_untouched(env, net):
    a, b = Pipe("a", Gbps(1)), Pipe("b", Gbps(1))
    mine = net.start_flow("mine", [a], 100 * MB)
    other = net.start_flow("other", [b], 100 * MB)
    env.run(until=0.01)
    state = (other.remaining_bits, other._last_update, other._arm)
    net.start_flow("newcomer", [a], 100 * MB)
    net.set_rate_cap(mine, Mbps(300))
    assert mine._last_update == env.now  # settled: its rate moved
    assert (other.remaining_bits, other._last_update, other._arm) == state


def test_only_flows_whose_rate_moves_are_settled(env, net):
    a, b = Pipe("a", Gbps(1)), Pipe("b", Mbps(100))
    held = net.start_flow("held", [a, b], 100 * MB)
    moved = net.start_flow("moved", [a], 100 * MB, rate_cap_bps=Mbps(300))
    env.run(until=0.01)
    state = (held.remaining_bits, held._last_update, held._arm)
    net.set_rate_cap(moved, Mbps(200))
    assert moved.rate_bps == Mbps(200) and moved._last_update == env.now
    assert held.rate_bps == Mbps(100)
    assert (held.remaining_bits, held._last_update, held._arm) == state


def test_completion_tick_holds_under_unrelated_churn():
    """Other components' solves neither settle nor re-arm a flow, so it
    completes on the same tick with or without them."""

    def finish(churn):
        env = Environment()
        net = FluidNetwork(env)
        watched = net.start_flow("watched", [Pipe("a", 9.37e8)], 7 * MB)
        state = (watched.remaining_bits, watched._last_update, watched._arm)
        others = [Pipe(f"o{i}", Gbps(1)) for i in range(3)]
        rng = random.Random(3)

        def noise():
            for i in range(200):
                yield env.timeout(rng.uniform(1e-5, 3e-4))
                flow = net.start_flow(f"n{i}", rng.sample(others, 2), rng.uniform(1e3, 1e5))
                net.set_rate_cap(flow, rng.uniform(1e7, 1e9))
                assert (watched.remaining_bits, watched._last_update, watched._arm) == state

        if churn:
            env.process(noise())
        env.run(until=watched.done)
        assert net.solve_rounds > (200 if churn else 0)
        return env.now_ticks

    assert finish(churn=True) == finish(churn=False)


def test_capacity_change_on_an_idle_pipe_solves_nothing(env, net):
    busy, idle = Pipe("busy", Gbps(1)), Pipe("idle", Gbps(1))
    flow = net.start_flow("f", [busy, idle], MB)
    env.run(until=flow.done)
    net.start_flow("g", [busy], 100 * MB)
    recomputations, rounds = net.recomputations, net.solve_rounds
    net.set_pipe_capacity(idle, Mbps(10))
    assert net.recomputations == recomputations + 1
    assert net.solve_rounds == rounds
    assert idle not in net._plans
