"""Congestion window dynamics: slow start, BIC/Reno avoidance, losses.

The model is *deterministic*: the paper's Fig. 9 curves are smooth ramps
with reproducible shapes, and determinism keeps every experiment exactly
repeatable.  Loss events are triggered by the connection (see
:mod:`repro.tcp.connection`) when the window crosses a threshold; this
module only evolves the window.

BIC (Table 3: the testbed kernels ran "BIC + Sack") is implemented in its
textbook form: after a loss at window ``W_max``, the window is cut to
``beta * W_max`` and then performs a binary search towards ``W_max``
(increment ``(W_max - W) / 2`` clamped to ``[S_min, S_max]``); past
``W_max`` it probes with slowly doubling increments.  Reno is included as
a baseline for ablation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import TcpError

#: Ethernet TCP maximum segment size (1500 MTU - 40 bytes of headers, with
#: timestamps: 1448 payload bytes).
MSS = 1448

#: BIC constants (Linux 2.6 defaults, in segments).
BIC_SMAX_SEGMENTS = 32
BIC_SMIN_SEGMENTS = 1
BIC_BETA = 0.8

#: Max-probing above W_max is cautious in BIC: small steps that accelerate
#: slowly.  These two constants set the multi-second ramp time scale the
#: paper observes on the 11.6 ms path (Fig. 9).
PROBE_SMAX_SEGMENTS = 8
PROBE_ACCELERATION = 1.2

#: initial window: RFC 3390 for a 1448-byte MSS gives 3 segments.
INITIAL_WINDOW = 3 * MSS


@dataclass(slots=True)
class CongestionState:
    """Per-direction congestion control state."""

    algorithm: str = "bic"
    cwnd: float = float(INITIAL_WINDOW)
    ssthresh: float = float("inf")
    #: window at the last loss (BIC's W_max)
    last_max: float = 0.0
    #: current probing increment beyond last_max (BIC max-probing)
    _probe_increment: float = float(BIC_SMIN_SEGMENTS * MSS)
    losses: int = 0

    def __post_init__(self):
        if self.algorithm not in ("bic", "reno"):
            raise TcpError(f"unknown congestion algorithm {self.algorithm!r}")

    def copy(self) -> "CongestionState":
        """An independent copy, for evolving rounds ahead without applying
        them (a plain constructor call: ``copy.copy`` on a slotted class
        goes through the slower reduce protocol)."""
        return CongestionState(
            self.algorithm,
            self.cwnd,
            self.ssthresh,
            self.last_max,
            self._probe_increment,
            self.losses,
        )

    @property
    def in_slow_start(self) -> bool:
        return self.cwnd < self.ssthresh

    def on_round(self) -> None:
        """Grow the window after one RTT of window-limited transmission."""
        if self.in_slow_start:
            self.cwnd = min(self.cwnd * 2.0, self.ssthresh)
            return
        if self.algorithm == "reno":
            self.cwnd += MSS
            return
        # BIC congestion avoidance.
        smax = BIC_SMAX_SEGMENTS * MSS
        smin = BIC_SMIN_SEGMENTS * MSS
        if self.cwnd < self.last_max:
            # Binary search towards the previous maximum.
            increment = (self.last_max - self.cwnd) / 2.0
            increment = min(max(increment, smin), smax)
        else:
            # Max probing: slowly accelerating exploration of new territory.
            increment = self._probe_increment
            self._probe_increment = min(
                self._probe_increment * PROBE_ACCELERATION,
                PROBE_SMAX_SEGMENTS * MSS,
            )
        self.cwnd += increment

    def on_loss(self) -> None:
        """Multiplicative decrease after a loss event."""
        self.losses += 1
        self.last_max = self.cwnd
        beta = BIC_BETA if self.algorithm == "bic" else 0.5
        self.cwnd = max(float(2 * MSS), self.cwnd * beta)
        self.ssthresh = self.cwnd
        self._probe_increment = float(BIC_SMIN_SEGMENTS * MSS)

    def on_idle_restart(self) -> None:
        """RFC 2861: after an idle period > RTO, restart from the initial
        window (ssthresh is preserved so the ramp back is fast)."""
        self.cwnd = float(INITIAL_WINDOW)
        self._probe_increment = float(BIC_SMIN_SEGMENTS * MSS)

    def clamp(self, max_window: float) -> None:
        """Never let the window exceed what the buffers can hold."""
        if max_window <= 0:
            raise TcpError(f"window clamp must be positive, got {max_window}")
        self.cwnd = min(self.cwnd, float(max_window))
