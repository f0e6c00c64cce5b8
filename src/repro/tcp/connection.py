"""The fluid TCP connection: window-limited transfers over the network.

Model summary
-------------
A message of ``n`` bytes becomes ``n * WIRE_FACTOR`` wire bytes (Ethernet
and TCP/IP framing — this is what makes a 1 Gbps link carry 940 Mbps of
application goodput).  The sender computes its effective window::

    W = min(cwnd, sndbuf, rcvbuf)

* ``wire <= W`` — the message fits in one window: it is sent as one
  uncapped fluid flow (bursts at line rate / fair share).
* ``wire > W`` — the transfer is **window-limited**: the flow is capped at
  ``W / RTT`` and the congestion window evolves once per RTT (growth, or a
  loss event) while the window is the binding limit.

Loss events are deterministic and happen in three situations, all on
window growth (the window only evolves while it is the binding limit):

1. **Queue overflow** — ``cwnd`` exceeds the path BDP plus the bottleneck
   queue.  This is physical and applies to everyone; it bounds the
   steady-state window (the ~900 Mbps plateau of Fig. 6/7).
2. **Slow-start overshoot** — exponential growth blows through the
   bottleneck queue long before reaching the BDP.  The overshoot point is
   ``ss_cap / ss_cap_divisor``; a *paced* sender (GridMPI) and the plain
   TCP pingpong have divisor 1, while unpaced MPI senders (whose
   fragmented writes burst harder) use divisor ~2.  This is the paper's
   observation that MPI implementations ramp slower than raw TCP (Fig. 9).
3. **Probing losses** — while probing above the previous maximum
   (BIC max-probing), a loss occurs every ``probe_loss_rounds`` rounds.
   This produces the slow second-phase climb of Fig. 9; pacing stretches
   the period.

The returned timestamp of :meth:`TcpConnection.transmit` is the *arrival*
of the last byte at the receiver: sender-side completion plus one-way
propagation plus the receive-side stack crossing.

The window rounds
-----------------
Rounds fall on a grid of engine ticks from the flow's start: the next grid
tick is one RTT ahead while the flow runs at its cap (``rate >= 0.98 *
cap``, the window binds) and eight RTTs ahead while the path share limits
it instead; only a tick that follows a window-limited one runs a round.
Between cap pushes a round changes nothing the rest of the simulation can
see, so the driver does not wake for it.  It evolves a copy of the
congestion state to find the first round that pushes a cap (growth above
5 % or any shrink) or takes a loss, sleeps once to exactly that tick, and on
waking replays the skipped rounds in order, each stamped with its own
time.  A *held* round (the buffers bind, no loss can be injected) changes
nothing, nor does any round after it in the transfer: a run of them is
counted in one step, each still sampled at its own time.  Injected-loss
draws are taken ahead in stream order and consumed one per round, as if
drawn then.  The fluid solver calls the driver back whenever it changes
the flow's rate; a change that flips the ``0.98 * cap`` test re-arms the
wake-up at the first grid tick after it.  The driver tests the tick's
solved rate: a start or a cap push leaves a flow that shares its pipes to
one fluid solve later in the tick, and the driver waits for that solve
(:meth:`~repro.net.fluid.FluidNetwork.settled`) before it reads the rate,
so it decides on the allocation that holds after the tick, not on one
that only some of the tick's starts have shaped.  Ties: a completion at a
grid tick cancels that tick's round, and the test at a grid tick the
driver sleeps through sees every rate change made at that tick.

Calibration
-----------
``TCP_STACK_ONEWAY`` = 12 µs makes Table 4 exact: the cluster's 41 µs TCP
latency = 29 µs wire one-way + 12 µs stack, and the grid's 5812 µs =
5800 µs (half of the 11.6 ms ping RTT) + 12 µs.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import TcpError
from repro.faults.profile import FaultProfile
from repro.net.fluid import Flow, FluidNetwork
from repro.net.topology import Network, Node, Route
from repro.obs import runtime as _obs
from repro.sim.core import Environment, Event
from repro.sim.queues import Resource
from repro.sim.rng import RngRegistry
from repro.tcp.buffers import BufferPolicy, effective_buffers
from repro.tcp.congestion import CongestionState
from repro.tcp.sysctl import DEFAULT_SYSCTLS, SysctlConfig
from repro.units import KB, TICKS_PER_SECOND, delay_to_ticks, usec

#: Ethernet + IP + TCP framing per 1448-byte segment (1538 wire bytes per
#: MSS): 1 Gbps carries ~941 Mbps of goodput, the paper's plateau.
WIRE_FACTOR = 1538.0 / 1448.0

#: Fixed wire cost of a message (minimum frame + connection bookkeeping).
PER_MESSAGE_WIRE_BYTES = 66

#: One-way host stack crossing (see module docstring: calibrated so that
#: Table 4's raw-TCP latencies are exact).
TCP_STACK_ONEWAY = usec(12)

#: Bottleneck queue sizes (router buffer on the WAN path, switch buffer in
#: the cluster).
WAN_QUEUE_BYTES = 512 * KB
LAN_QUEUE_BYTES = 256 * KB

#: Default slow-start overshoot point (before the burstiness divisor).
DEFAULT_SS_CAP_BYTES = 384 * KB

#: Default probing-loss period in rounds (raw TCP / paced senders).
DEFAULT_PROBE_LOSS_ROUNDS = 50

#: Minimum retransmission timeout (Linux): bounds the idle-restart check.
RTO_MIN = 0.2

#: A flow running at this share of its pushed cap is window-limited.
WINDOW_LIMITED_SHARE = 0.98

#: Grid spacing, in RTTs, while the path share rather than the window binds.
LAZY_POLL_RTTS = 8


def _wan_keys(name: str) -> dict[bool, tuple]:
    """Registry keys of ``name`` for both ``wan`` labels.  The per-message
    and per-RTT sites record through these: building the sorted label tuple
    there costs more than the record, and every direction shares them."""
    return {wan: _obs.metric_key(name, wan=wan) for wan in (False, True)}


_K_TRANSFERS = _wan_keys("tcp.transfers")
_K_TRANSFER_BYTES = _wan_keys("tcp.transfer_bytes")
_K_WINDOW_ROUNDS = _wan_keys("tcp.window_rounds")


def _pushes(new_cap: float, sent_cap: float) -> bool:
    """Whether a window round's cap reaches the fluid layer: only material
    changes do (growth steps are a few percent); shrinks (losses) always
    propagate."""
    return new_cap < sent_cap or new_cap > 1.05 * sent_cap


@dataclass(frozen=True)
class TcpOptions:
    """Per-connection behaviour knobs (set by the MPI implementation)."""

    buffer_policy: BufferPolicy = field(default_factory=BufferPolicy.autotune)
    #: divisor applied to the slow-start overshoot point; >1 for senders
    #: whose fragmented writes burst harder than a single TCP stream.
    ss_cap_divisor: float = 1.0
    #: one probing loss every this many rounds above the previous maximum.
    probe_loss_rounds: int = DEFAULT_PROBE_LOSS_ROUNDS
    #: override the congestion control algorithm (None: host sysctl).
    congestion_control: Optional[str] = None
    #: deterministic WAN degradation of inter-site routes (None = the
    #: clean dedicated path)
    fault_profile: Optional[FaultProfile] = None

    def __post_init__(self):
        if self.ss_cap_divisor < 1.0:
            raise TcpError("ss_cap_divisor must be >= 1")
        if self.probe_loss_rounds < 1:
            raise TcpError("probe_loss_rounds must be >= 1")


@dataclass(slots=True)
class TransferStats:
    """Counters of one connection direction."""

    transfers: int = 0
    payload_bytes: float = 0.0
    window_rounds: int = 0
    losses: int = 0
    #: subset of ``losses`` that were injected by a fault profile
    injected_losses: int = 0
    idle_restarts: int = 0


class _Alarm:
    """The single pending wake-up of one window-limited transfer's driver.

    The driver sleeps on :attr:`event` from the grid tick ``anchor``; later
    grid ticks are ``anchor + k * step``.  The event fires on the first of:
    the flow's completion, the timer at :attr:`tick` (``None``: no timer),
    or an earlier grid tick re-armed by :meth:`on_rate_change`.  Each path
    fires it through one extra event hop, so the driver resumes after
    everything already queued for its tick.  The flow's ``done`` event carries one callback per
    transfer, however many times the driver sleeps.
    """

    __slots__ = ("env", "flow", "event", "timer", "tick", "anchor", "step",
                 "limited", "threshold")

    def __init__(self, env: Environment, flow: Flow):
        self.env = env
        self.flow = flow
        #: what the driver sleeps on; ``None`` while it runs
        self.event: Optional[Event] = None
        self.timer: Optional[Event] = None
        self.tick: Optional[int] = None
        self.anchor = 0
        self.step = 1
        #: the window-limited test assumed for the grid ticks ahead
        self.limited = False
        #: the rate at or above which the flow is window-limited
        self.threshold = 0.0
        flow.done.callbacks.append(self._on_done)
        flow.on_rate_change = self.on_rate_change

    def sleep(
        self, anchor: int, step: int, limited: bool, sent_cap: float, tick: Optional[int]
    ) -> Event:
        """Arm the wake-up; returns the event to yield."""
        self.anchor = anchor
        self.step = step
        self.limited = limited
        self.threshold = WINDOW_LIMITED_SHARE * sent_cap
        self.event = Event(self.env)
        self._arm(tick)
        return self.event

    def close(self) -> None:
        """Detach from the flow: later timers and rate changes are ignored."""
        self.event = None
        self.timer = None
        self.flow.on_rate_change = None

    def on_rate_change(self, flow: Flow) -> None:
        """Fluid-solver hook: re-arm at the first grid tick whose
        window-limited test the new rate flips."""
        event = self.event
        if event is None or event.triggered:
            return  # the driver is running, or about to: it tests afresh
        limited = flow.rate_bps >= self.threshold
        if limited == self.limited:
            return
        self.limited = limited
        # The anchor's own test is already taken; a change at a later grid
        # tick is seen by that tick's test.
        ahead = max(1, -((self.anchor - self.env.now_ticks) // self.step))
        tick = self.anchor + ahead * self.step
        if self.tick is None or tick < self.tick:
            self._arm(tick)

    def _arm(self, tick: Optional[int]) -> None:
        self.tick = tick
        if tick is None:
            self.timer = None
            return
        self.timer = timer = self.env.timeout_at(tick)
        timer.callbacks.append(self._on_timer)

    def _on_timer(self, timer: Event) -> None:
        if timer is self.timer:
            self._wake()

    def _on_done(self, done: Event) -> None:
        if not done._ok:
            done._defused = True  # the driver re-raises it
        self._wake()

    def _wake(self) -> None:
        event = self.event
        if event is not None and not event.triggered:
            event.succeed()


class _Direction:
    """One half of a full-duplex TCP connection.

    A job opens one per ordered pair of ranks on different nodes, so a
    direction holds only what a transfer reads: no instance ``__dict__``,
    and a loss-draw buffer only when losses are injected.
    """

    __slots__ = (
        "env", "fluid", "route", "inter_site", "options", "name",
        "src_site", "dst_site", "sndbuf", "rcvbuf", "cc",
        "slow_start_after_idle", "stats", "_lock", "_activity",
        "_probe_rounds", "faults", "_rtt_scale", "_loss_rng", "_jitter_rng",
        "_draws", "loss_threshold", "ss_cap",
    )

    def __init__(
        self,
        env: Environment,
        fluid: FluidNetwork,
        route: Route,
        src_sysctl: SysctlConfig,
        dst_sysctl: SysctlConfig,
        options: TcpOptions,
        name: str,
        sites: tuple[str, str] = ("", ""),
    ):
        self.env = env
        self.fluid = fluid
        self.route = route
        self.inter_site = route.inter_site
        self.options = options
        self.name = name
        #: endpoint cluster names, data direction: the span-analytics layer
        #: (obs/aggregate.py) keys its WAN-time matrix on this pair.
        self.src_site, self.dst_site = sites
        self.sndbuf, self.rcvbuf = effective_buffers(
            options.buffer_policy, src_sysctl, dst_sysctl
        )
        algo = options.congestion_control or src_sysctl.congestion_control
        self.cc = CongestionState(algorithm=algo)
        self.slow_start_after_idle = src_sysctl.tcp_slow_start_after_idle
        self.stats = TransferStats()
        self._lock = Resource(env)
        #: shared with the opposite direction: a connection receiving data
        #: is not idle, so a long pingpong turnaround must not trigger the
        #: RFC 2861 restart (set by TcpConnection after construction).
        self._activity = [-math.inf]
        self._probe_rounds = 0

        profile = options.fault_profile
        if profile is not None and profile.applies_to(route.inter_site):
            self.faults: Optional[FaultProfile] = profile
            self._rtt_scale = profile.rtt_inflation
            # Separate streams for loss and jitter draws: the loss stream
            # advances per window round, the jitter stream per transmit, so
            # enabling one effect never perturbs the other's sequence.
            rngs = RngRegistry(profile.seed)
            self._loss_rng = (
                rngs.uniform(f"faults.loss.{name}") if profile.loss_prob > 0 else None
            )
            self._jitter_rng = (
                rngs.uniform(f"faults.jitter.{name}")
                if profile.jitter_frac > 0
                else None
            )
        else:
            self.faults = None
            self._rtt_scale = 1.0
            self._loss_rng = None
            self._jitter_rng = None
        #: loss draws taken from ``_loss_rng`` ahead of the rounds they
        #: belong to (oldest first); ``None`` on a lossless direction
        self._draws: Optional[deque[float]] = (
            None if self._loss_rng is None else deque()
        )

        sess = _obs.ACTIVE
        if sess is not None:
            sess.count("tcp.connections", wan=route.inter_site)
            if self.faults is not None:
                sess.count("faults.profiles_applied", wan=route.inter_site)

        queue = WAN_QUEUE_BYTES if route.inter_site else LAN_QUEUE_BYTES
        # BDP of the (possibly inflated) path: an RTT-inflating fault grows
        # the pipe the window has to fill before the queue overflows.
        bdp = route.bottleneck_bps * self.rtt / 8.0
        #: physical loss threshold: path BDP plus bottleneck queue (bytes).
        self.loss_threshold = bdp + queue
        #: slow-start overshoot point.
        self.ss_cap = (
            min(self.loss_threshold, DEFAULT_SS_CAP_BYTES) / options.ss_cap_divisor
        )

    # -- helpers ------------------------------------------------------------------
    @property
    def rtt(self) -> float:
        return self.route.rtt * self._rtt_scale

    @property
    def rto(self) -> float:
        return max(RTO_MIN, 2.0 * self.rtt)

    def window(self) -> float:
        return min(self.cc.cwnd, self.sndbuf, self.rcvbuf)

    def _cwnd_limited(self) -> bool:
        return self.cc.cwnd <= min(self.sndbuf, self.rcvbuf)

    def _held(self, cc: CongestionState) -> bool:
        """Whether a round of ``cc`` is held: the buffers bind and no loss
        can be injected, so it changes nothing, nor does any later round."""
        return self._loss_rng is None and cc.cwnd > min(self.sndbuf, self.rcvbuf)

    def _on_window_round(self, now: float) -> None:
        """Evolve the congestion window after the window-limited RTT that
        ends at ``now`` (seconds; telemetry is stamped with it)."""
        self.stats.window_rounds += 1
        was_slow_start = self.cc.in_slow_start
        loss_kind = self._evolve_window()

        sess = _obs.ACTIVE
        if sess is None:
            return
        exited_slow_start = was_slow_start and not self.cc.in_slow_start
        if sess.spans:
            sess.sample(now, "tcp.cwnd", self.name, self.cc.cwnd)
            if loss_kind is not None:
                sess.instant(now, f"tcp.loss.{loss_kind}", "tcp", self.name)
            if exited_slow_start:
                sess.instant(now, "tcp.slowstart.exit", "tcp", self.name)
        sess.count_key(_K_WINDOW_ROUNDS[self.inter_site])
        if loss_kind is not None:
            sess.count("tcp.losses", kind=loss_kind, wan=self.route.inter_site)
            if loss_kind == "injected":
                sess.count("faults.injected_losses")
        if exited_slow_start:
            sess.count("tcp.slowstart_exits", wan=self.route.inter_site)
            sess.gauge("tcp.slowstart_exit_s", now, conn=self.name)

    def _evolve_window(self) -> Optional[str]:
        """One window-evolution step; returns the loss kind (or ``None``)."""
        draw = None
        if self._loss_rng is not None:
            draw = self._draw(0)
            self._draws.popleft()
        kind, self._probe_rounds = self._round_kind(self.cc, self._probe_rounds, draw)
        if kind is not None:
            self.cc.on_loss()
            self.stats.losses += 1
            if kind == "injected":
                self.stats.injected_losses += 1
        elif self._cwnd_limited():
            self.cc.on_round()
        return kind

    def _draw(self, ahead: int) -> float:
        """The injected-loss draw of the round ``ahead`` rounds from now
        (0: the next one).  A draw is taken from the stream on first use and
        kept until its round consumes it, so looking ahead never reorders
        the stream."""
        draws = self._draws
        while len(draws) <= ahead:
            draws.append(self._loss_rng.random())
        return draws[ahead]

    def _round_kind(
        self, cc: CongestionState, probe_rounds: int, draw: Optional[float]
    ) -> tuple[Optional[str], int]:
        """Classify one window round of ``cc`` without applying it.

        Returns the loss the round ends in (``None``: no loss) and the
        probing-round count after it.  A lossless round grows the window
        when it is cwnd-limited and leaves it alone when the buffers bind.
        """
        if draw is not None and self.faults is not None and draw < self.faults.loss_prob:
            # Injected WAN loss: indistinguishable from a congestion signal
            # to the sender, so it composes with the deterministic overflow
            # / overshoot / probing losses below.
            return "injected", 0
        if cc.cwnd > min(self.sndbuf, self.rcvbuf):
            return None, probe_rounds  # buffer-limited: the window must not evolve
        if cc.in_slow_start:
            if cc.cwnd >= self.ss_cap:
                return "overshoot", 0
            return None, probe_rounds
        if cc.cwnd >= self.loss_threshold:
            return "overflow", 0
        if cc.cwnd >= cc.last_max:
            probe_rounds += 1
            if probe_rounds >= self.options.probe_loss_rounds:
                return "probe", 0
        return None, probe_rounds

    def _rounds_to_visible(self, sent_cap: float, horizon: int) -> Optional[int]:
        """Rounds until the first one the rest of the simulation can see.

        Evolves a copy of the congestion state: a round is visible when it
        takes a loss or moves the window enough to push a new cap.  Looks
        at most ``horizon`` rounds ahead and returns ``horizon`` when none
        of those is visible; returns ``None`` when no round ever will be
        (the buffers bind and no loss can be injected).
        """
        cc = self.cc.copy()
        probe_rounds = self._probe_rounds
        buffers = min(self.sndbuf, self.rcvbuf)
        lossy = self._loss_rng is not None
        for ahead in range(horizon):
            draw = self._draw(ahead) if lossy else None
            kind, probe_rounds = self._round_kind(cc, probe_rounds, draw)
            if kind is not None:
                return ahead + 1
            if cc.cwnd <= buffers:
                cc.on_round()
            elif self._held(cc):
                return None
            window = min(cc.cwnd, self.sndbuf, self.rcvbuf)
            if _pushes(window * 8.0 / self.rtt, sent_cap):
                return ahead + 1
        return horizon

    def _drive(self, flow: Flow, sent_cap: float):
        """Carry a window-limited flow to completion (generator).

        ``sent_cap`` is the cap the flow started with.  See the module
        docstring for the round grid, the skip-ahead and the tie rules.
        """
        env = self.env
        rtt = self.rtt
        round_ticks = delay_to_ticks(rtt)
        poll_ticks = delay_to_ticks(LAZY_POLL_RTTS * rtt)
        alarm = _Alarm(env, flow)
        anchor = env.now_ticks
        fluid = self.fluid
        try:
            while True:
                # Decide on the tick's solved rate: a start or a cap push
                # leaves the flow's component to one solve later this tick.
                while (settled := fluid.settled(flow)) is not None:
                    yield settled
                if flow.done.triggered:
                    break  # it finished (or failed) while the tick settled
                # The congestion window only evolves while it is the binding
                # constraint (congestion window validation); when the path
                # share limits the flow instead, the grid spaces out.
                # Compare against the cap the fluid layer actually has
                # (sent_cap): small growth steps may not have been pushed.
                limited = flow.rate_bps >= WINDOW_LIMITED_SHARE * sent_cap
                step = round_ticks if limited else poll_ticks
                tick = None
                if limited:
                    # Stop looking one round past the flow's expected end:
                    # if it finishes then, its completion wakes the driver.
                    finish = math.ceil(flow.finish_estimate() * TICKS_PER_SECOND)
                    horizon = max(1, -((anchor - finish) // round_ticks)) + 1
                    rounds = self._rounds_to_visible(sent_cap, horizon)
                    if rounds is not None:
                        tick = anchor + rounds * round_ticks
                yield alarm.sleep(anchor, step, limited, sent_cap, tick)
                alarm.event = None
                done = flow.done.triggered
                # Grid ticks passed since the anchor; a completion at a grid
                # tick cancels that tick's round.
                last = env.now_ticks - 1 if done else env.now_ticks
                passed = (last - anchor) // step
                if limited:
                    for k in range(1, passed + 1):
                        if self._held(self.cc):
                            self._hold_rounds(anchor, step, k, passed)
                            break
                        sent_cap = self._replay_round(
                            flow, sent_cap, (anchor + k * step) / TICKS_PER_SECOND
                        )
                if done:
                    break
                anchor += passed * step
        finally:
            alarm.close()
        if not flow.done.ok:
            raise flow.done.value

    def _replay_round(self, flow: Flow, sent_cap: float, now: float) -> float:
        """One window round ending at ``now``; returns the flow's cap after
        it (pushed to the fluid layer when it moved materially)."""
        self._on_window_round(now)
        window = self.window()
        new_cap = window * 8.0 / self.rtt
        if _pushes(new_cap, sent_cap):
            self.fluid.set_rate_cap(flow, new_cap)
            return new_cap
        return sent_cap

    def _hold_rounds(self, anchor: int, step: int, first: int, last: int) -> None:
        """Count held grid rounds ``first..last`` from ``anchor`` in one step:
        they move neither window nor cap, so only count and samples remain."""
        n = last - first + 1
        self.stats.window_rounds += n
        sess = _obs.ACTIVE
        if sess is None:
            return
        if sess.spans:
            for k in range(first, last + 1):
                now = (anchor + k * step) / TICKS_PER_SECOND
                sess.sample(now, "tcp.cwnd", self.name, self.cc.cwnd)
        sess.count_key(_K_WINDOW_ROUNDS[self.inter_site], inc=n)

    # -- the transfer ----------------------------------------------------------------
    def transmit(self, nbytes: int):
        """Send ``nbytes``; returns the receiver-side arrival time.

        Generator — drive it from a simulation process.  Concurrent
        transmits on the same direction are serialised FIFO (one socket,
        one progress engine: head-of-line blocking is real).
        """
        if nbytes < 0:
            raise TcpError(f"cannot transmit {nbytes} bytes")
        t_post = self.env.now
        grant = self._lock.request()
        if not grant.processed:
            yield grant
        try:
            env = self.env
            sess = _obs.ACTIVE
            last_activity = self._activity[0]
            if (
                self.slow_start_after_idle
                and env.now - last_activity > self.rto
                and last_activity >= 0
            ):
                self.cc.on_idle_restart()
                self.stats.idle_restarts += 1
                if sess is not None:
                    if sess.spans:
                        sess.instant(env.now, "tcp.idle_restart", "tcp", self.name)
                    sess.count("tcp.idle_restarts", wan=self.route.inter_site)

            wire = nbytes * WIRE_FACTOR + PER_MESSAGE_WIRE_BYTES
            self.stats.transfers += 1
            self.stats.payload_bytes += nbytes
            if sess is not None:
                sess.count_key(_K_TRANSFERS[self.inter_site])
                sess.observe_key(_K_TRANSFER_BYTES[self.inter_site], nbytes)

            window = self.window()
            if wire <= window:
                flow = self.fluid.start_flow(self.name, self.route.pipes, wire)
                yield flow.done
            else:
                flow = self.fluid.start_flow(
                    self.name,
                    self.route.pipes,
                    wire,
                    rate_cap_bps=window * 8.0 / self.rtt,
                )
                sent_cap = window * 8.0 / self.rtt
                losses_before = self.stats.losses
                yield from self._drive(flow, sent_cap)
                if sess is not None and sess.spans:
                    # Window-limited transfers only: one span per segment
                    # of an NPB run would swamp the trace, but the large
                    # transfers are where the WAN diagnosis lives.
                    sess.complete(
                        t_post,
                        env.now - t_post,
                        "tcp.transmit",
                        "tcp",
                        self.name,
                        {
                            "bytes": nbytes,
                            "window_limited": True,
                            "src_site": self.src_site,
                            "dst_site": self.dst_site,
                            "retransmits": self.stats.losses - losses_before,
                        },
                    )
            self._activity[0] = env.now
            arrival = (
                env.now + self.route.one_way_delay * self._rtt_scale + TCP_STACK_ONEWAY
            )
            if self._jitter_rng is not None and self.faults is not None:
                jitter = (
                    self._jitter_rng.random()
                    * self.faults.jitter_frac
                    * self.route.one_way_delay
                )
                arrival += jitter
                if sess is not None:
                    sess.count("faults.jitter_draws")
                    sess.count("faults.jitter_seconds", inc=jitter)
            return arrival
        finally:
            self._lock.release(grant)


class TcpConnection:
    """A full-duplex TCP connection between two nodes."""

    __slots__ = ("env", "a", "b", "name", "forward", "backward")

    def __init__(
        self,
        env: Environment,
        fluid: FluidNetwork,
        network: Network,
        a: Node,
        b: Node,
        options: TcpOptions,
        sysctl_a: SysctlConfig,
        sysctl_b: SysctlConfig,
        name: str = "",
    ):
        self.env = env
        self.a = a
        self.b = b
        self.name = name or f"tcp:{a.name}<->{b.name}"
        self.forward = _Direction(
            env, fluid, network.route(a, b), sysctl_a, sysctl_b, options,
            f"{self.name}:fwd", (a.cluster.name, b.cluster.name),
        )
        self.backward = _Direction(
            env, fluid, network.route(b, a), sysctl_b, sysctl_a, options,
            f"{self.name}:rev", (b.cluster.name, a.cluster.name),
        )
        # One socket pair: activity in either direction keeps it warm.
        self.backward._activity = self.forward._activity

    @property
    def rtt(self) -> float:
        return self.forward.rtt

    def direction(self, src: Node) -> _Direction:
        if src is self.a:
            return self.forward
        if src is self.b:
            return self.backward
        raise TcpError(f"{src.name!r} is not an endpoint of {self.name!r}")

    def transmit(self, src: Node, nbytes: int):
        """Send ``nbytes`` from ``src`` to the other endpoint (generator;
        returns the arrival time at the receiver)."""
        return self.direction(src).transmit(nbytes)

    def connect(self):
        """Three-way handshake (generator): one RTT before data can flow."""
        yield self.env.timeout(self.forward.rtt + 2 * TCP_STACK_ONEWAY)


class Fabric:
    """Binds an environment, a topology and per-cluster sysctls together.

    The fabric is the factory for TCP connections; experiments mutate the
    sysctls (the paper's §4.2.1 tuning) before the MPI job starts.
    """

    def __init__(
        self,
        env: Environment,
        network: Network,
        sysctls: SysctlConfig = DEFAULT_SYSCTLS,
    ):
        self.env = env
        self.network = network
        self.fluid = FluidNetwork(env)
        self._sysctls: dict[str, SysctlConfig] = {
            name: sysctls for name in network.clusters
        }

    def set_sysctls(self, config: SysctlConfig, cluster: Optional[str] = None) -> None:
        """Apply a sysctl configuration to one cluster or to every host."""
        if cluster is None:
            for name in self._sysctls:
                self._sysctls[name] = config
            return
        if cluster not in self._sysctls:
            raise TcpError(f"unknown cluster {cluster!r}")
        self._sysctls[cluster] = config

    def sysctls_for(self, node: Node) -> SysctlConfig:
        return self._sysctls[node.cluster.name]

    def connect(self, a: Node, b: Node, options: TcpOptions) -> TcpConnection:
        return TcpConnection(
            self.env,
            self.fluid,
            self.network,
            a,
            b,
            options,
            self.sysctls_for(a),
            self.sysctls_for(b),
        )
