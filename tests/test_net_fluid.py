"""Tests for the fluid flow-level bandwidth model."""

import math
import random

import pytest

from repro.apps import run_ray2mesh
from repro.errors import NetworkConfigError
from repro.experiments.environments import get_environment
from repro.experiments.registry import run_experiment
from repro.net import FluidNetwork, Pipe
from repro.net.fluid import _ComponentPlan
from repro.net.grid5000 import build_ray2mesh_testbed
from repro.sim import Environment
from repro.units import Gbps, MB, Mbps
from tests.fluid_invariants import maxmin_checked


@pytest.fixture()
def env():
    return Environment()


@pytest.fixture()
def net(env):
    return FluidNetwork(env)


def settle(env):
    """Run the current tick's events, the network's pending solve among
    them: a mutation leaves its component to one solve later in the tick."""
    env.run(until=env.now)


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
    assert not net.flows and not net._solo and not net._plans


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
    assert not net.flows and not net._solo and not net._plans


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
    assert not net.flows and not net._solo and not net._plans
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


def _check_plans(network):
    """The pipe -> plan and pipe -> solo flow maps hold exact components:
    they cover disjoint pipes and together exactly the pipes the live flows
    cross, each solo pipe carries exactly its one flow, each other busy
    pipe maps to the plan holding exactly its component, each plan's live
    flows are connected, and plans and solo flows together partition
    ``network.flows``.  A plan's live counts and dead marks match its live
    flows, and its cap list holds its live capped flows in order."""
    crossing = {}
    for flow in sorted(network.flows, key=lambda f: f.uid):
        for pipe in flow.pipes:
            crossing.setdefault(pipe, []).append(flow)
    assert not set(network._plans) & set(network._solo)
    assert set(network._plans) | set(network._solo) == set(crossing)
    covered = []
    for pipe, flow in network._solo.items():
        assert crossing[pipe] == [flow]
        if pipe is flow.pipes[0]:
            assert all(network._solo.get(other) is flow for other in flow.pipes)
            covered.append(flow)
    plans = {id(plan): plan for plan in network._plans.values()}
    for plan in plans.values():
        flows = list(plan.flow_index)
        assert flows == sorted(flows, key=lambda f: f.uid)
        reached, stack = {flows[0]}, [flows[0]]
        while stack:
            for pipe in stack.pop().pipes:
                assert network._plans[pipe] is plan
                for other in crossing[pipe]:
                    if other not in reached:
                        reached.add(other)
                        stack.append(other)
        assert reached == set(flows), "a plan holds more than one component"
        for pipe, pidx in plan.pipe_index.items():
            live = [f for f in crossing.get(pipe, ()) if f in plan.flow_index]
            assert plan.live_count[pidx] == len(live)
        assert [plan.flows[i] for i in range(len(plan.flows)) if not plan.dead[i]] == flows
        assert plan.caps == sorted(
            (f.rate_cap_bps, plan.flow_index[f]) for f in flows if f.rate_cap_bps != math.inf
        )
        covered += flows
    assert len(covered) == len(set(covered)) and set(covered) == network.flows


def _drive_workload(seed, sparse=False):
    """Run a randomized flow history, checking every rate against the
    oracle after the solve that follows every operation and every
    completion, and every solve against the max-min invariants; returns
    the number of oracle checks and the number of completions that shared
    their tick with another.

    A burst starts several identical flows at once: they finish on one
    tick, so a single completion callback departs them all.

    ``sparse`` spreads short routes over many pipes, so most flows run
    solo or in a plan of one live flow; caps then often equal a route
    pipe's capacity exactly."""
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
    finished_at = []

    def check(when):
        # Queued behind the tick's solve, which the mutation queued first.
        env.call_at(env.now_ticks, lambda: check_solved(when))

    def check_solved(when):
        assert not network._pending, f"a solve is still pending {when}"
        _check_against_oracle(network, pipes, when)
        _check_plans(network)
        # stale completion entries never outgrow the live population
        assert len(network._due) <= 2 * len(network.flows) + 65
        checks.append(when)

    def pick_route():
        if not sparse:
            return rng.sample(pipes, rng.randint(1, min(3, len(pipes))))
        return rng.sample(pipes, rng.randint(1, 2))

    def pick_cap(route):
        if sparse and rng.random() < 0.4:
            return rng.choice(route).capacity_bps  # cap == capacity tie
        return math.inf if rng.random() < 0.3 else rng.uniform(1e6, 2e9)

    def finished(event, name):
        if event.ok:  # not aborted
            finished_at.append(env.now_ticks)
        check(f"after {name} completed")

    def script():
        counter = 0
        for step in range(60):
            yield env.timeout(rng.uniform(1e-4, 5e-3))
            dice = rng.random()
            live = [f for f in started if f in network.flows]
            if dice < 0.5 or not live:
                route = pick_route()
                cap = pick_cap(route)
                nbytes = rng.uniform(1e3, 2e7)
                for _ in range(rng.randint(2, 4) if dice < 0.1 else 1):
                    counter += 1
                    flow = network.start_flow(
                        f"w{counter}", route, nbytes, rate_cap_bps=cap
                    )
                    flow.done.callbacks.append(
                        lambda ev, name=flow.name: finished(ev, name)
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
    with maxmin_checked() as tally:
        # Generous horizon: a 1 Mbps cap on a 20 MB flow needs ~160 s of
        # virtual time, and virtual seconds are cheap once the churn stops.
        env.run(until=300.0)
    assert not network.flows, "workload must drain within the horizon"
    assert tally.completions == len(finished_at)
    shared = sum(finished_at.count(tick) > 1 for tick in finished_at)
    return len(checks), shared


@pytest.mark.parametrize("seed", range(10))
def test_incremental_allocator_matches_legacy_oracle(seed):
    # 60 operations, plus one check per flow that finished or aborted
    checks, shared_tick_completions = _drive_workload(seed)
    assert checks > 60 and shared_tick_completions > 0


@pytest.mark.parametrize("seed", range(6))
def test_small_components_match_legacy_oracle(seed):
    checks, shared_tick_completions = _drive_workload(seed, sparse=True)
    assert checks > 60 and shared_tick_completions > 0


@pytest.mark.parametrize("seed", range(20))
def test_closed_form_is_bit_identical_to_progressive_filling(seed):
    """A solo flow's rate equals what filling a plan of that one flow
    computes, to the bit, including a cap equal to the smallest capacity."""
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
    assert net._solo[route[0]] is flow and not net._plans
    plan = _ComponentPlan([flow])
    live = [plan.flow_index[flow]]
    assert net._fill(plan, live)[live[0]] == flow.rate_bps
    assert flow.rate_bps == min(cap, narrowest)


@pytest.mark.parametrize("cap", ["inf", "narrowest", "below"])
def test_plan_shrunk_to_one_flow_fills_to_its_lone_rate(env, net, cap):
    """A plan left with one live flow stays a plan and fills, resumed or
    from zero, to exactly ``min(cap, smallest capacity)``."""
    a, b = Pipe("a", 9.37e8), Pipe("b", 2.5e10 / 3)
    rate_cap = {"inf": math.inf, "narrowest": a.capacity_bps, "below": 6.1e8}[cap]
    with maxmin_checked():
        keeper = net.start_flow("keeper", [a, b], 100 * MB, rate_cap_bps=rate_cap)
        short = net.start_flow("short", [a], MB)
        plan = net._plans[a]
        settle(env)
        rounds, visits = net.solve_rounds, net.fill_visits
        env.run(until=short.done)
        assert net._plans[a] is net._plans[b] is plan and list(plan.flow_index) == [keeper]
        assert (net.solve_rounds, net.fill_visits) == (rounds + 1, visits + 1)
        assert keeper.rate_bps == min(rate_cap, a.capacity_bps)
        net.set_pipe_capacity(b, 2.5e8 / 3)  # a fill from zero
        settle(env)
        assert keeper.rate_bps == min(rate_cap, b.capacity_bps)
        assert net.solve_rounds == rounds + 2
        net.set_pipe_capacity(b, 2.5e10 / 3)
        settle(env)
        assert keeper.rate_bps == min(rate_cap, a.capacity_bps)


def test_route_listing_a_pipe_twice_is_rejected(env, net):
    pipe = Pipe("p", Gbps(1))
    with pytest.raises(NetworkConfigError, match="twice"):
        net.start_flow("f", [pipe, Pipe("q", Gbps(10)), pipe], MB)
    assert not net.flows and not net._solo and not net._plans
    assert net.recomputations == net._flow_counter == 0


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
    settle(env)
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
    assert net._solo == {a: left, b: right, c: right} and not net._plans
    bridge = net.start_flow("bridge", [a, b], 100 * MB)
    plan = net._plans[a]
    assert net._plans[b] is plan and net._plans[c] is plan and not net._solo
    assert list(plan.flow_index) == [left, right, bridge]
    settle(env)
    assert left.rate_bps == right.rate_bps == bridge.rate_bps == Gbps(1) / 2


def test_solve_leaves_other_components_untouched(env, net):
    a, b = Pipe("a", Gbps(1)), Pipe("b", Gbps(1))
    mine = net.start_flow("mine", [a], 100 * MB)
    other = net.start_flow("other", [b], 100 * MB)
    env.run(until=0.01)
    state = (other.remaining_bits, other._last_update, other._arm)
    net.start_flow("newcomer", [a], 100 * MB)
    net.set_rate_cap(mine, Mbps(300))
    settle(env)
    assert mine._last_update == env.now  # settled: its rate moved
    assert (other.remaining_bits, other._last_update, other._arm) == state


def test_only_flows_whose_rate_moves_are_settled(env, net):
    a, b = Pipe("a", Gbps(1)), Pipe("b", Mbps(100))
    held = net.start_flow("held", [a, b], 100 * MB)
    moved = net.start_flow("moved", [a], 100 * MB, rate_cap_bps=Mbps(300))
    env.run(until=0.01)
    state = (held.remaining_bits, held._last_update, held._arm)
    net.set_rate_cap(moved, Mbps(200))
    settle(env)
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
        # alone, the watched flow is solo: it never needs a component solve
        assert net.solve_rounds > 200 if churn else net.solve_rounds == 0
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
    assert idle not in net._plans and idle not in net._solo


# -- solo flows ------------------------------------------------------------------


def test_arrival_on_idle_pipes_is_solo(env, net):
    a, b = Pipe("a", Gbps(1)), Pipe("b", Mbps(400))
    flow = net.start_flow("f", [a, b], MB, rate_cap_bps=Mbps(900))
    assert net._solo == {a: flow, b: flow} and not net._plans
    assert flow.rate_bps == Mbps(400)
    assert (net.recomputations, net.solve_rounds) == (1, 0)
    env.run(until=flow.done)
    assert env.now == pytest.approx(MB * 8 / Mbps(400))
    assert not net._solo and not net._plans
    assert (net.recomputations, net.solve_rounds) == (2, 0)


def test_second_flow_on_a_solo_pipe_builds_the_plan_of_both(env, net):
    a, b, c = Pipe("a", Gbps(1)), Pipe("b", Gbps(1)), Pipe("c", Mbps(300))
    solo = net.start_flow("solo", [a, b], 100 * MB)
    env.run(until=0.01)
    newcomer = net.start_flow("new", [b, c], 100 * MB)
    plan = net._plans[a]
    assert net._plans[b] is plan and net._plans[c] is plan and not net._solo
    assert list(plan.flow_index) == [solo, newcomer] and plan.pipes == [a, b, c]
    assert net.solve_rounds == 0  # the solve waits for the tick's other mutations
    settle(env)
    assert net.solve_rounds == 1
    assert (solo.rate_bps, newcomer.rate_bps) == (Mbps(700), Mbps(300))
    # the join settled the bytes the solo flow sent at its old rate
    assert solo._last_update == env.now
    assert solo.remaining_bits == pytest.approx(100 * MB * 8 - Gbps(1) * 0.01)
    _check_against_oracle(net, [a, b, c], "after the solo flow joined a plan")


def test_cap_push_on_a_solo_flow_rerates_it_directly(env, net):
    pipe = Pipe("p", Gbps(1))
    flow = net.start_flow("f", [pipe], 100 * MB)
    env.run(until=0.01)
    state = (flow.rate_bps, flow.remaining_bits, flow._last_update, flow._arm)
    net.set_rate_cap(flow, Gbps(2))  # not cap-limited, and still above its rate
    assert (flow.rate_bps, flow.remaining_bits, flow._last_update, flow._arm) == state
    assert net.recomputations == 1
    net.set_rate_cap(flow, Mbps(300))
    assert flow.rate_bps == Mbps(300) and flow._last_update == env.now
    net.set_rate_cap(flow, Mbps(600))  # cap-limited: the push re-rates it
    assert flow.rate_bps == Mbps(600)
    assert (net.recomputations, net.solve_rounds) == (3, 0)
    assert net._solo == {pipe: flow}


def test_link_flap_on_a_solo_pipe_rerates_its_flow(env, net):
    a, b = Pipe("a", Gbps(1)), Pipe("b", Gbps(1))
    flow = net.start_flow("f", [a, b], 10 * MB)
    env.run(until=0.01)
    net.set_pipe_capacity(b, Mbps(100))
    assert flow.rate_bps == Mbps(100)
    env.run(until=0.02)
    net.set_pipe_capacity(b, Gbps(1))
    assert flow.rate_bps == Gbps(1)
    assert (net.recomputations, net.solve_rounds) == (3, 0)
    env.run(until=flow.done)
    sent = Gbps(1) * 0.01 + Mbps(100) * 0.01
    assert env.now == pytest.approx(0.02 + (10 * MB * 8 - sent) / Gbps(1))


def test_abort_of_a_solo_flow_unmaps_its_pipes(env, net):
    a, b = Pipe("a", Gbps(1)), Pipe("b", Gbps(1))
    flow = net.start_flow("f", [a, b], 100 * MB)
    flow.done._defused = True  # the abort is the point
    env.run(until=0.01)
    net.abort_flow(flow, RuntimeError("link flap"))
    assert not flow.done.ok and flow not in net.flows
    assert not net._solo and not net._plans
    assert flow.remaining_bits == pytest.approx(100 * MB * 8 - Gbps(1) * 0.01)
    env.run()  # the queued timer finds only the aborted flow's stale entry
    assert not flow.done.ok and net._due == []
    assert (net.recomputations, net.solve_rounds) == (2, 0)


# -- one solve per tick, coalesced firings and resumed fills --------------------


def test_flows_finishing_on_one_tick_are_solved_once(env, net):
    a, b = Pipe("a", Gbps(1)), Pipe("b", Mbps(900))
    burst = [net.start_flow(f"s{i}", [a], MB) for i in range(4)]
    long = net.start_flow("long", [a, b], 100 * MB)
    other = net.start_flow("other", [b], 100 * MB)
    settle(env)
    rounds = net.solve_rounds
    env.run(until=burst[0].done)
    assert all(flow.done.triggered for flow in burst)
    assert net.solve_rounds == rounds + 1  # one solve for the firing, not 4
    _check_against_oracle(net, [a, b], "after the burst completed")
    assert long.rate_bps == other.rate_bps == Mbps(450)


def test_departure_refills_only_flows_at_or_above_its_rate(env, net):
    pipe = Pipe("p", Gbps(1))
    capped = [
        net.start_flow(f"c{i}", [pipe], 100 * MB, rate_cap_bps=Mbps(50 + i))
        for i in range(5)
    ]
    fastest = net.start_flow("fastest", [pipe], MB)
    peer = net.start_flow("peer", [pipe], 100 * MB)
    settle(env)
    assert fastest.rate_bps == peer.rate_bps == Mbps(370)
    state = [(f.remaining_bits, f._last_update, f._arm) for f in capped]
    visits = net.fill_visits
    env.run(until=fastest.done)
    assert net.fill_visits == visits + 1  # ``peer``: the capped flows are fixed
    assert peer.rate_bps == Mbps(740)
    assert [(f.remaining_bits, f._last_update, f._arm) for f in capped] == state
    _check_against_oracle(net, [pipe], "after the fastest flow departed")


def test_firing_resumes_at_the_lowest_rate_it_departed(env, net):
    p, r = Pipe("p", Mbps(300)), Pipe("r", Gbps(1))
    slow = net.start_flow("slow", [p], 1.25 * MB, rate_cap_bps=Mbps(100))
    held = net.start_flow("held", [p, r], 100 * MB)
    fast = net.start_flow("fast", [r], 3.75 * MB, rate_cap_bps=Mbps(300))
    net.start_flow("keeper", [r], 100 * MB, rate_cap_bps=Mbps(50))
    settle(env)
    assert (slow.rate_bps, held.rate_bps, fast.rate_bps) == (Mbps(100), Mbps(200), Mbps(300))
    visits = net.fill_visits
    env.run(until=slow.done)
    assert fast.done.triggered  # same tick, departing after ``slow``
    # ``held`` lies between the two departed rates, so it is re-solved;
    # ``keeper`` lies below both and stays frozen
    assert held.rate_bps == Mbps(300)
    assert net.fill_visits == visits + 1
    _check_against_oracle(net, [p, r], "after both departed")


def test_same_tick_arrivals_and_cap_pushes_cost_one_solve(env, net):
    """Every mutation of one component within a tick waits for one solve:
    arrivals that extend and merge its plan, then cap pushes on old and
    new flows alike."""
    a, b = Pipe("a", Gbps(1)), Pipe("b", Mbps(600))
    with maxmin_checked():
        first = net.start_flow("first", [a], 100 * MB)
        env.run(until=0.01)
        assert net._solo == {a: first}
        rounds, recomputations = net.solve_rounds, net.recomputations
        flows = [
            net.start_flow(f"f{i}", [a, b] if i % 2 else [b], 100 * MB) for i in range(4)
        ]
        net.set_rate_cap(first, Mbps(100))
        net.set_rate_cap(flows[0], Mbps(50))
        net.set_rate_cap(flows[3], Mbps(70))
        assert net.solve_rounds == rounds and flows[3].rate_bps == 0.0
        settle(env)
        assert net.solve_rounds == rounds + 1
        # four arrivals and two pushes; the push on the unsolved f3 moves no rate
        assert net.recomputations == recomputations + 6
        _check_against_oracle(net, [a, b], "after the arrivals' tick")
        _check_plans(net)

        env.run(until=0.02)
        rounds = net.solve_rounds
        for flow, cap in zip(flows, (Mbps(20), Mbps(300), Mbps(40))):
            net.set_rate_cap(flow, cap)
        settle(env)
        assert net.solve_rounds == rounds + 1
        _check_against_oracle(net, [a, b], "after the cap pushes' tick")


@pytest.mark.parametrize("seed", range(24))
def test_same_tick_burst_on_one_plan_matches_the_oracle(seed):
    """A cap push, an abort and a second cap push on one plan within one
    tick resume one fill at the lowest of their levels, each taken from
    a rate no solve has refreshed; the result is the oracle's."""
    rng = random.Random(seed)
    env = Environment()
    net = FluidNetwork(env)
    pipes = [Pipe(f"p{i}", rng.choice([1e8, 2.5e8, 9.37e8, 1e9])) for i in range(4)]
    with maxmin_checked():
        flows = [
            net.start_flow(
                f"f{i}",
                rng.sample(pipes, rng.randint(1, 3)),
                rng.uniform(1e8, 1e9),
                rate_cap_bps=math.inf if rng.random() < 0.4 else rng.uniform(1e7, 6e8),
            )
            for i in range(rng.randint(6, 10))
        ]
        env.run(until=rng.uniform(1e-3, 1e-2))
        plan = max({id(p): p for p in net._plans.values()}.values(), key=lambda p: len(p.flow_index))
        pushed, aborted, repushed = rng.sample(list(plan.flow_index), 3)
        # caps around the current rates, so that few pushes are no-ops
        net.set_rate_cap(pushed, pushed.rate_bps * rng.uniform(0.1, 1.5))
        aborted.done._defused = True  # the abort is the point
        net.abort_flow(aborted, RuntimeError("link flap"))
        net.set_rate_cap(repushed, repushed.rate_bps * rng.uniform(0.1, 1.5))
        assert net._pending
        settle(env)
    assert not net._pending
    _check_against_oracle(net, pipes, "after the burst's tick")
    _check_plans(net)
    assert len(flows) > len(net.flows)


def test_reduced_ray2mesh_keeps_max_min_and_pins_solver_counts():
    """A real run through TCP and MPI, every solve and completion checked:
    it covers solo flows, same-tick solves, coalesced firings, resumed fills
    and TCP cap pushes.  The exact counts are pinned; an intentional solver
    change re-seeds them (with a CHANGES.md line)."""
    env = get_environment("fully_tuned")
    with maxmin_checked() as tally:
        result = run_ray2mesh(
            env.impl("mpich2"),
            master_site="rennes",
            total_rays=20_000,
            network=build_ray2mesh_testbed(nodes_per_site=3),
            sysctls=env.sysctls,
        )
    assert result.total_rays == 20_000
    (net,) = tally.networks
    assert not net.flows and tally.completions > 0
    assert (net.recomputations, net.solve_rounds, net.fill_visits) == (1146, 261, 17941)


def test_fig5_runs_every_flow_solo(monkeypatch):
    """Fig. 5's cluster ping-pong never puts two flows on one pipe: every
    flow runs solo, so no network solves a component."""
    networks = []
    init = FluidNetwork.__init__

    def collecting_init(self, env):
        init(self, env)
        networks.append(self)

    monkeypatch.setattr(FluidNetwork, "__init__", collecting_init)
    run_experiment("fig5", fast=True)
    assert networks and sum(net.recomputations for net in networks) > 0
    assert [net.solve_rounds for net in networks] == [0] * len(networks)
