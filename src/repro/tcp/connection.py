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
  ``W / RTT`` and a driver wakes up every RTT to evolve the congestion
  window (growth, or a loss event) and adjust the cap.

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

Calibration
-----------
``TCP_STACK_ONEWAY`` = 12 µs makes Table 4 exact: the cluster's 41 µs TCP
latency = 29 µs wire one-way + 12 µs stack, and the grid's 5812 µs =
5800 µs (half of the 11.6 ms ping RTT) + 12 µs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

from repro import faults as _faults
from repro.errors import TcpError
from repro.obs import runtime as _obs
from repro.faults.profile import FaultProfile
from repro.net.fluid import FluidNetwork
from repro.net.topology import Network, Node, Route
from repro.sim.core import Environment
from repro.sim.queues import Resource
from repro.sim.rng import RngRegistry
from repro.sim.sync import any_of
from repro.tcp.buffers import BufferPolicy, effective_buffers
from repro.tcp.congestion import CongestionState
from repro.tcp.sysctl import DEFAULT_SYSCTLS, SysctlConfig
from repro.units import KB, usec

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


@dataclass(frozen=True)
class TcpOptions:
    """Per-connection behaviour knobs (set by the MPI implementation)."""

    buffer_policy: BufferPolicy = field(default_factory=BufferPolicy.autotune)
    #: software pacing of sends (GridMPI); informational — its effects are
    #: carried by the two fields below.
    paced: bool = False
    #: divisor applied to the slow-start overshoot point; >1 for senders
    #: whose fragmented writes burst harder than a single TCP stream.
    ss_cap_divisor: float = 1.0
    #: one probing loss every this many rounds above the previous maximum.
    probe_loss_rounds: int = DEFAULT_PROBE_LOSS_ROUNDS
    #: override the congestion control algorithm (None: host sysctl).
    congestion_control: Optional[str] = None
    #: deterministic WAN degradation (None = the clean dedicated path);
    #: when a fault scenario is ambient (``repro.faults.activated``) the
    #: fabric substitutes the scenario's profile here.
    fault_profile: Optional[FaultProfile] = None

    def __post_init__(self):
        if self.ss_cap_divisor < 1.0:
            raise TcpError("ss_cap_divisor must be >= 1")
        if self.probe_loss_rounds < 1:
            raise TcpError("probe_loss_rounds must be >= 1")


@dataclass
class TransferStats:
    """Counters of one connection direction."""

    transfers: int = 0
    payload_bytes: float = 0.0
    window_rounds: int = 0
    losses: int = 0
    #: subset of ``losses`` that were injected by a fault profile
    injected_losses: int = 0
    idle_restarts: int = 0


class _Direction:
    """One half of a full-duplex TCP connection."""

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
        self._lock = Resource(env, capacity=1)
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
                rngs.stream(f"faults.loss.{name}") if profile.loss_prob > 0 else None
            )
            self._jitter_rng = (
                rngs.stream(f"faults.jitter.{name}")
                if profile.jitter_frac > 0
                else None
            )
        else:
            self.faults = None
            self._rtt_scale = 1.0
            self._loss_rng = None
            self._jitter_rng = None

        sess = _obs.ACTIVE
        if sess is not None and sess.metrics:
            sess.count("tcp.connections", wan=route.inter_site)
            if self.faults is not None:
                sess.count("faults.profiles_applied", wan=route.inter_site)

        # Precomputed registry keys for the per-message / per-RTT sites —
        # building the sorted label tuple there costs more than the record.
        wan = route.inter_site
        self._k_transfers = _obs.metric_key("tcp.transfers", wan=wan)
        self._k_transfer_bytes = _obs.metric_key("tcp.transfer_bytes", wan=wan)
        self._k_window_rounds = _obs.metric_key("tcp.window_rounds", wan=wan)

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

    def _on_window_round(self) -> None:
        """Evolve the congestion window after one window-limited RTT."""
        self.stats.window_rounds += 1
        was_slow_start = self.cc.in_slow_start
        loss_kind = self._evolve_window()

        sess = _obs.ACTIVE
        if sess is None:
            return
        now = self.env.now
        exited_slow_start = was_slow_start and not self.cc.in_slow_start
        if sess.spans:
            sess.sample(now, "tcp.cwnd", self.name, self.cc.cwnd)
            if loss_kind is not None:
                sess.instant(now, f"tcp.loss.{loss_kind}", "tcp", self.name)
            if exited_slow_start:
                sess.instant(now, "tcp.slowstart.exit", "tcp", self.name)
        if sess.metrics:
            sess.count_key(self._k_window_rounds)
            if loss_kind is not None:
                sess.count("tcp.losses", kind=loss_kind, wan=self.route.inter_site)
                if loss_kind == "injected":
                    sess.count("faults.injected_losses")
            if exited_slow_start:
                sess.count("tcp.slowstart_exits", wan=self.route.inter_site)
                sess.gauge("tcp.slowstart_exit_s", now, conn=self.name)

    def _evolve_window(self) -> Optional[str]:
        """One window-evolution step; returns the loss kind (or ``None``)."""
        if (
            self._loss_rng is not None
            and self.faults is not None
            and float(self._loss_rng.random()) < self.faults.loss_prob
        ):
            # Injected WAN loss: indistinguishable from a congestion signal
            # to the sender, so it composes with the deterministic overflow
            # / overshoot / probing losses below.
            self.cc.on_loss()
            self.stats.losses += 1
            self.stats.injected_losses += 1
            self._probe_rounds = 0
            return "injected"
        if not self._cwnd_limited():
            return None  # buffer-limited: the window must not evolve
        cc = self.cc
        if cc.in_slow_start:
            if cc.cwnd >= self.ss_cap:
                cc.on_loss()
                self.stats.losses += 1
                self._probe_rounds = 0
                return "overshoot"
            cc.on_round()
            return None
        if cc.cwnd >= self.loss_threshold:
            cc.on_loss()
            self.stats.losses += 1
            self._probe_rounds = 0
            return "overflow"
        if cc.cwnd >= cc.last_max:
            self._probe_rounds += 1
            if self._probe_rounds >= self.options.probe_loss_rounds:
                cc.on_loss()
                self.stats.losses += 1
                self._probe_rounds = 0
                return "probe"
        cc.on_round()
        return None

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
                    if sess.metrics:
                        sess.count("tcp.idle_restarts", wan=self.route.inter_site)

            wire = nbytes * WIRE_FACTOR + PER_MESSAGE_WIRE_BYTES
            self.stats.transfers += 1
            self.stats.payload_bytes += nbytes
            if sess is not None and sess.metrics:
                sess.count_key(self._k_transfers)
                sess.observe_key(self._k_transfer_bytes, nbytes)

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
                while not flow.done.triggered:
                    # The congestion window only evolves while it is the
                    # binding constraint (congestion window validation);
                    # when the path share limits the flow instead, check
                    # back lazily.  Compare against the cap the fluid layer
                    # actually has (sent_cap): small growth steps may not
                    # have been pushed yet.
                    window_limited = flow.rate_bps >= 0.98 * sent_cap
                    tick = env.timeout(self.rtt if window_limited else 8 * self.rtt)
                    yield any_of(env, (flow.done, tick))
                    if flow.done.triggered:
                        break
                    if window_limited:
                        self._on_window_round()
                        window = self.window()
                        new_cap = window * 8.0 / self.rtt
                        # Push only material changes (growth steps are a
                        # few percent); shrinks (losses) always propagate.
                        if new_cap < sent_cap or new_cap > 1.05 * sent_cap:
                            self.fluid.set_rate_cap(flow, new_cap)
                            sent_cap = new_cap
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
                    float(self._jitter_rng.random())
                    * self.faults.jitter_frac
                    * self.route.one_way_delay
                )
                arrival += jitter
                if sess is not None and sess.metrics:
                    sess.count("faults.jitter_draws")
                    sess.count("faults.jitter_seconds", inc=jitter)
            return arrival
        finally:
            self._lock.release(grant)


class TcpConnection:
    """A full-duplex TCP connection between two nodes."""

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
        #: the ambient fault scenario at construction time (frozen here so a
        #: scenario deactivated mid-simulation cannot half-apply).
        self.fault_scenario = _faults.active_scenario()
        if self.fault_scenario is not None:
            self.fault_scenario.install(env, network, self.fluid)

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
        scenario = self.fault_scenario
        if (
            scenario is not None
            and scenario.profile is not None
            and options.fault_profile is None
        ):
            options = replace(options, fault_profile=scenario.profile)
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
