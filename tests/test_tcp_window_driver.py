"""The event-driven TCP window driver against the per-RTT polling oracle.

:func:`polling_drive` is the window driver as it was before rounds were
fast-forwarded: it wakes every RTT while the flow is window-limited (every
8 RTTs otherwise) on a timeout raced against the flow's completion, and
runs one window round per wake-up.  It is kept here as the reference.
Both drivers wait for the fluid solve a start or a cap push leaves pending
in its tick (``FluidNetwork.settled``) before they test the rate.

The property test runs one randomized workload under each driver: WAN
transfers contending for the site access links from staggered starts,
buffer-limited windows, idle gaps past the RTO, injected loss and jitter,
RTT inflation, link flaps and cross-traffic.  After every transfer the
arrival time, the cap pushes so far (tick, flow and value), the
``TransferStats`` and the congestion state must be identical.

The cost tests pin what the fast-forward buys: a long window-limited
transfer pops engine events in proportion to its cap pushes and losses,
not to its rounds, and its flow's ``done`` event holds a bounded number of
callbacks.  Held rounds (the buffers bind on a clean path) are counted in
one step: a long buffer-limited transfer evolves its window about once per
cap push.
"""

import dataclasses
import random

import pytest

from repro.analysis.perturb import perturbation_ranker
from repro.faults import CrossTraffic, FaultProfile, FaultScenario, LinkFlap
from repro.net import FluidNetwork
from repro.net.grid5000 import build_pair_testbed, build_ray2mesh_testbed
from repro.sim import Environment
from repro.sim.core import install_trace_sink, remove_trace_sink, tie_ranker
from repro.sim.sync import any_of
from repro.tcp import (
    DEFAULT_SYSCTLS,
    TUNED_SYSCTLS,
    BufferPolicy,
    Fabric,
    TcpOptions,
)
from repro.tcp.connection import _Direction
from repro.units import KB, MB, Mbps, delay_to_ticks


def polling_drive(self, flow, sent_cap):
    """Reference window driver: one wake-up per RTT (generator).  Like the
    fast-forward driver, it tests the tick's solved rate."""
    env = self.env
    while not flow.done.triggered:
        while (settled := self.fluid.settled(flow)) is not None:
            yield settled
        if flow.done.triggered:
            break
        window_limited = flow.rate_bps >= 0.98 * sent_cap
        tick = env.timeout(self.rtt if window_limited else 8 * self.rtt)
        yield any_of(env, (flow.done, tick))
        if flow.done.triggered:
            break
        if window_limited:
            self._on_window_round(env.now)
            window = self.window()
            new_cap = window * 8.0 / self.rtt
            if new_cap < sent_cap or new_cap > 1.05 * sent_cap:
                self.fluid.set_rate_cap(flow, new_cap)
                sent_cap = new_cap


# --- randomized workloads -------------------------------------------------------------
def _workload(seed):
    """A pure description of one workload; both drivers replay it."""
    rng = random.Random(seed)
    buffers = [
        BufferPolicy.autotune(),
        BufferPolicy.initial(),
        BufferPolicy.fixed(64 * KB, 64 * KB),
        BufferPolicy.fixed(256 * KB, 192 * KB),
    ]
    conns = []
    for i in range(rng.randint(3, 6)):
        profile = None
        if i == 0 or rng.random() < 0.4:
            profile = FaultProfile(
                seed=rng.randrange(1000),
                loss_prob=rng.choice([0.01, 0.05, 0.2]),
                jitter_frac=rng.choice([0.0, 0.3]),
                rtt_inflation=rng.choice([1.0, 1.0, 1.5]),
            )
        options = TcpOptions(
            # connection 1 is always buffer-limited
            buffer_policy=buffers[2] if i == 1 else rng.choice(buffers),
            ss_cap_divisor=rng.choice([1.0, 2.0]),
            probe_loss_rounds=rng.randint(4, 60),
            congestion_control=rng.choice([None, None, "reno"]),
            fault_profile=profile,
        )
        messages = []
        for k in range(rng.randint(3, 6)):
            size = rng.randint(1, 48 * KB) if rng.random() < 0.2 else rng.randint(
                256 * KB, 6 * MB
            )
            # 0: next send at once; 1: after the arrival; 2: idle past the RTO
            gap = rng.choice([0, 1, 2]) if k else 2
            idle = rng.uniform(0.25, 1.0)
            messages.append((size, rng.random() < 0.25, gap, idle))
        conns.append(
            {
                # sources share their site's uplink: flows contend
                "src": ("rennes", rng.randrange(3)),
                "dst": (rng.choice(["nancy", "sophia", "toulouse"]), rng.randrange(3)),
                "start": rng.uniform(0.0, 0.4),
                "options": options,
                "messages": messages,
            }
        )
    flaps = LinkFlap(
        period_s=rng.uniform(0.3, 1.2),
        duration_s=rng.uniform(0.05, 0.3),
        capacity_factor=rng.choice([0.1, 0.3, 0.6]),
    )
    cross = CrossTraffic(rate_bps=Mbps(rng.choice([200, 600])), burst_s=0.2, gap_s=0.3)
    scenario = FaultScenario(
        name="flaps",
        description="randomized link flaps and cross-traffic",
        seed=seed,
        link_flaps=flaps,
        cross_traffic=cross if rng.random() < 0.5 else None,
        horizon_s=4.0,
    )
    sysctls = rng.choice([DEFAULT_SYSCTLS, TUNED_SYSCTLS])
    return conns, scenario, sysctls


def _replay(seed, pushes):
    """Run ``_workload(seed)``; returns the per-transfer records.  Cap
    pushes are logged into ``pushes`` (see ``push_log``)."""
    conns, scenario, sysctls = _workload(seed)
    env = Environment()
    net = build_ray2mesh_testbed(nodes_per_site=3)
    fabric = Fabric(env, net, sysctls)
    scenario.install(env, net, fabric.fluid)
    records = {}

    def sender(index, spec):
        src = net.clusters[spec["src"][0]].nodes[spec["src"][1]]
        dst = net.clusters[spec["dst"][0]].nodes[spec["dst"][1]]
        conn = fabric.connect(src, dst, spec["options"])
        yield env.timeout(spec["start"])
        yield from conn.connect()
        for k, (size, reverse, gap, idle) in enumerate(spec["messages"]):
            origin = dst if reverse else src
            direction = conn.direction(origin)
            arrival = yield from conn.transmit(origin, size)
            records[(index, k)] = (
                arrival,
                env.now_ticks,
                dataclasses.replace(direction.stats),
                dataclasses.astuple(direction.cc),
                direction._probe_rounds,
                len(pushes),
            )
            if gap >= 1:
                yield env.timeout(max(0.0, arrival - env.now))
            if gap == 2:
                yield env.timeout(idle)

    for index, spec in enumerate(conns):
        env.process(sender(index, spec))
    env.run()
    return records


@pytest.fixture()
def push_log(monkeypatch):
    """Every cap push, as ``(tick, flow name, cap)``."""
    log = []
    original = FluidNetwork.set_rate_cap

    def logged(self, flow, rate_cap_bps):
        log.append((self.env.now_ticks, flow.name, rate_cap_bps))
        original(self, flow, rate_cap_bps)

    monkeypatch.setattr(FluidNetwork, "set_rate_cap", logged)
    return log


@pytest.mark.parametrize("seed", range(12))
def test_fast_forward_driver_matches_polling_oracle(seed, push_log, monkeypatch):
    fast_records = _replay(seed, push_log)
    fast_pushes = list(push_log)
    push_log.clear()
    with monkeypatch.context() as patch:
        patch.setattr(_Direction, "_drive", polling_drive)
        ref_records = _replay(seed, push_log)
    ref_pushes = push_log

    assert sorted(fast_records) == sorted(ref_records)
    for key, ref in ref_records.items():
        assert fast_records[key] == ref, f"transfer {key} diverges from the oracle"
    assert fast_pushes == ref_pushes
    # the workload exercises what the driver skips over
    stats = [record[2] for record in ref_records.values()]
    assert max(s.window_rounds for s in stats) > 20
    assert max(s.injected_losses for s in stats) > 0
    assert max(s.idle_restarts for s in stats) > 0
    assert ref_pushes


# --- exact ties -----------------------------------------------------------------------
# Random workloads almost never put two events on one tick; these three put
# them there on purpose, to pin the tie rules.  A fourth breaks held runs
# mid-transfer with capacity changes at known times.
def _completion_on_a_round_tick(env, net, fabric):
    """A flow whose last byte leaves exactly on a round's tick: its
    completion cancels that round."""
    src, dst = net.clusters["rennes"].nodes[0], net.clusters["nancy"].nodes[0]
    options = TcpOptions(buffer_policy=BufferPolicy.fixed(4096, 4096))
    direction = fabric.connect(src, dst, options).direction(src)
    cap = direction.window() * 8.0 / direction.rtt

    def sender():
        flow = fabric.fluid.start_flow(
            direction.name, direction.route.pipes, 25 * 4096, rate_cap_bps=cap
        )
        yield from direction._drive(flow, cap)
        assert env.now_ticks == 25 * delay_to_ticks(direction.rtt)
        return env.now_ticks

    return direction, [env.process(sender())]


def _flaps_on_round_ticks(env, net, fabric):
    """Capacity drops and restores landing exactly on round ticks: the
    window-limited test at a tick sees the change made at that tick."""
    src, dst = net.clusters["rennes"].nodes[0], net.clusters["nancy"].nodes[0]
    conn = fabric.connect(src, dst, TcpOptions())
    direction = conn.direction(src)
    round_ticks = delay_to_ticks(direction.rtt)
    uplink = net.clusters["rennes"].uplink

    def flapper():
        for k, capacity in ((9, 50e6), (14, 1e9), (20, 100e6), (27, 1e9)):
            yield env.timeout_at(k * round_ticks)
            fabric.fluid.set_pipe_capacity(uplink, capacity)

    def sender():
        return (yield from conn.transmit(src, 16 * MB))

    env.process(flapper())
    return direction, [env.process(sender())]


def _simultaneous_starts(env, net, fabric):
    """Two transfers start on the same tick through an uplink that fits
    one initial window's rate but not two: the first driver's test at the
    start does not see the second flow, its next one does."""
    rennes, nancy = net.clusters["rennes"].nodes, net.clusters["nancy"].nodes
    fabric.fluid.set_pipe_capacity(net.clusters["rennes"].uplink, Mbps(4))
    conns = [fabric.connect(rennes[i], nancy[i], TcpOptions()) for i in range(2)]

    def sender(i):
        return (yield from conns[i].transmit(rennes[i], MB))

    return conns[0].direction(rennes[0]), [env.process(sender(i)) for i in range(2)]


def _flaps_break_held_runs(env, net, fabric):
    """Buffer-limited transfers on a clean path hold their window after
    slow start; uplink flaps in the middle of those held runs stop and
    restart them.  Each transfer's arrival, stats and congestion state
    are recorded."""
    src, dst = net.clusters["rennes"].nodes[0], net.clusters["nancy"].nodes[0]
    options = TcpOptions(buffer_policy=BufferPolicy.fixed(256 * KB, 256 * KB))
    conn = fabric.connect(src, dst, options)
    direction = conn.direction(src)
    uplink = net.clusters["rennes"].uplink

    def flapper():
        for at, capacity in ((0.3137, 50e6), (0.4711, 1e9), (1.2345, 100e6), (1.5, 1e9)):
            yield env.timeout(at - env.now)
            fabric.fluid.set_pipe_capacity(uplink, capacity)

    def sender():
        records = []
        for _ in range(3):
            arrival = yield from conn.transmit(src, 16 * MB)
            stats = dataclasses.replace(direction.stats)
            records.append((arrival, stats, dataclasses.astuple(direction.cc)))
        return records

    env.process(flapper())
    return direction, [env.process(sender())]


@pytest.mark.parametrize(
    "scenario",
    [
        _completion_on_a_round_tick,
        _flaps_on_round_ticks,
        _simultaneous_starts,
        _flaps_break_held_runs,
    ],
    ids=["completion", "flaps", "simultaneous", "held-flaps"],
)
def test_tie_rules_match_polling_oracle(scenario, push_log, monkeypatch):
    def run():
        env = Environment()
        net = build_pair_testbed(nodes_per_site=2)
        fabric = Fabric(env, net, TUNED_SYSCTLS)
        direction, senders = scenario(env, net, fabric)
        env.run()
        return (
            [sender.value for sender in senders],
            dataclasses.replace(direction.stats),
            dataclasses.astuple(direction.cc),
        )

    fast = run()
    fast_pushes = list(push_log)
    push_log.clear()
    with monkeypatch.context() as patch:
        patch.setattr(_Direction, "_drive", polling_drive)
        assert run() == fast
    assert push_log == fast_pushes


def _same_tick_transfers(seed, push_log):
    """Two window-limited transfers start on one tick through an uplink a
    background flow already crosses; returns their sorted cap pushes under
    ``perturbation_ranker(seed)`` (``None``: FIFO ties)."""
    ranker = None if seed is None else perturbation_ranker(seed)
    push_log.clear()
    with tie_ranker(ranker):
        env = Environment()
        net = build_pair_testbed(nodes_per_site=2)
        fabric = Fabric(env, net, TUNED_SYSCTLS)
        rennes, nancy = net.clusters["rennes"].nodes, net.clusters["nancy"].nodes
        conns = [fabric.connect(rennes[i], nancy[i], TcpOptions()) for i in range(2)]
        first = conns[0].direction(rennes[0])
        cap = first.window() * 8.0 / first.rtt

        def sender(i):
            return (yield from conns[i].transmit(rennes[i], 16 * MB))

        # The two starts are the first two queue entries, so every seed
        # below runs them in the reverse of FIFO order.
        senders = [env.process(sender(i)) for i in range(2)]
        # Beside the background flow the uplink fits one initial window's
        # rate but not two; it recovers once that flow has left.
        uplink = net.clusters["rennes"].uplink
        nominal = uplink.capacity_bps
        fabric.fluid.set_pipe_capacity(uplink, 2.4 * cap)
        fabric.fluid.start_flow("background", [uplink], 40 * KB)
        env.call_at(delay_to_ticks(0.2), lambda: fabric.fluid.set_pipe_capacity(uplink, nominal))
        env.run()
    assert all(sender.ok for sender in senders)
    return sorted(push_log)


def test_same_tick_starts_push_the_same_caps_in_any_tick_order(push_log):
    """Each driver tests the tick's solved rate, not the one left by
    whichever start ran first, so the cap pushes do not depend on the
    order of the two starts."""
    fifo = _same_tick_transfers(None, push_log)
    assert len({name for _, name, _ in fifo}) == 2
    for seed in (1, 2, 3):
        assert _same_tick_transfers(seed, push_log) == fifo, f"perturbation seed {seed}"


# --- engine cost ---------------------------------------------------------------------
#: a clean grid path whose 512 kB buffers bind well below its BDP
BUFFER_LIMITED = TcpOptions(buffer_policy=BufferPolicy.fixed(512 * KB, 512 * KB))


def _long_transfer(nbytes, options):
    """One window-limited grid transfer; returns its sender's stats, the
    engine events popped, the cap pushes and the largest number of
    callbacks its flow's ``done`` event held."""
    env = Environment()
    net = build_pair_testbed(nodes_per_site=1)
    fabric = Fabric(env, net, TUNED_SYSCTLS)
    src, dst = net.clusters["rennes"].nodes[0], net.clusters["nancy"].nodes[0]
    conn = fabric.connect(src, dst, options)
    flows = []
    start_flow = fabric.fluid.start_flow

    def capture(*args, **kwargs):
        flows.append(start_flow(*args, **kwargs))
        return flows[-1]

    fabric.fluid.start_flow = capture
    popped = [0]
    most_callbacks = [0]

    def sink(tick, priority, seq, event):
        popped[0] += 1
        for flow in flows:
            if flow.done.callbacks is not None:
                most_callbacks[0] = max(most_callbacks[0], len(flow.done.callbacks))

    def runner():
        yield from conn.transmit(src, nbytes)

    env.process(runner())
    install_trace_sink(sink)
    try:
        env.run()
    finally:
        remove_trace_sink(sink)
    return conn.direction(src).stats, popped[0], most_callbacks[0]


@pytest.mark.parametrize(
    "options",
    [
        TcpOptions(),
        TcpOptions(ss_cap_divisor=2.0, probe_loss_rounds=18),
        BUFFER_LIMITED,
        TcpOptions(fault_profile=FaultProfile(seed=7, loss_prob=0.02)),
    ],
    ids=["cwnd-limited", "unpaced", "buffer-limited", "lossy"],
)
def test_engine_events_scale_with_pushes_not_rounds(options, push_log):
    stats, events, most_callbacks = _long_transfer(256 * MB, options)
    assert stats.window_rounds > 100
    # A few events per wake-up (timer, wake-up hop, a shrink's predicate
    # flip) plus the transfer's fixed cost; the polling driver pops at
    # least two per round whatever the pushes.
    assert events <= 3 * (len(push_log) + stats.losses) + 20
    # one callback (the driver's) however many times it slept
    assert most_callbacks == 1


def test_held_rounds_are_counted_not_evolved(push_log, monkeypatch):
    """Once the buffers bind on a clean path, the rounds left are counted
    in one step: the window evolves about once per cap push, not once per
    round."""
    evolved = [0]
    evolve = _Direction._evolve_window

    def counted(self):
        evolved[0] += 1
        return evolve(self)

    monkeypatch.setattr(_Direction, "_evolve_window", counted)
    stats, _, _ = _long_transfer(256 * MB, BUFFER_LIMITED)
    assert stats.window_rounds > 100
    assert evolved[0] <= len(push_log) + stats.losses + 5
