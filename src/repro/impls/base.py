"""The implementation model: every paper-relevant behavioural knob.

The four implementations differ *only* through instances of this
dataclass; the protocol, transport and collective engines are shared.
That mirrors the paper's method: it attributes every performance
difference to a small set of identifiable mechanisms, which are exactly
the fields below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional

from repro.errors import MpiError
from repro.faults.profile import FaultProfile
from repro.tcp.buffers import BufferPolicy
from repro.tcp.connection import TcpOptions


@dataclass(frozen=True)
class FeatureNotes:
    """Table 1 row: qualitative feature description."""

    long_distance: str
    heterogeneity: str
    first_publication: str
    last_publication: str


@dataclass(frozen=True)
class MpiImplementation:
    """A configured MPI implementation."""

    name: str
    display_name: str
    version: str

    # --- point-to-point protocol (Table 4, Table 5, Fig. 4) -------------------
    #: eager -> rendezvous switch (bytes); ``inf`` = never use rendezvous
    eager_threshold: float
    #: one-way software latency overhead inside a cluster / across the WAN
    overhead_lan: float
    overhead_wan: float
    #: staging/fragmentation cost per payload byte (OpenMPI's large-message
    #: deficit in Fig. 7)
    per_byte_overhead: float
    #: memory bandwidth for the unexpected-message copy (Fig. 4, arrow 2)
    copy_bandwidth: float

    # --- TCP behaviour (§4.2.1, Fig. 9) ------------------------------------------
    buffer_policy: BufferPolicy
    ss_cap_divisor: float
    probe_loss_rounds: int

    # --- collectives (§2.1) ---------------------------------------------------------
    #: operation -> algorithm name overrides (see repro.mpi.collectives)
    collectives: Mapping[str, str] = field(default_factory=dict)

    # --- bookkeeping -------------------------------------------------------------------
    #: NPB benchmarks this implementation cannot complete on the grid
    #: (§4.3: Madeleine times out on BT and SP)
    known_failures: frozenset = frozenset()
    features: Optional[FeatureNotes] = None
    #: the largest eager threshold the implementation supports (OpenMPI's
    #: TCP BTL caps its eager limit at 32 MB — hence Table 5's tuned value)
    max_eager_threshold: float = math.inf
    #: deterministic WAN degradation applied to every connection this
    #: implementation opens (None = the paper's clean dedicated path)
    fault_profile: Optional[FaultProfile] = None

    def __post_init__(self):
        if self.eager_threshold < 0:
            raise MpiError("eager threshold must be >= 0 (use inf for never)")
        if self.overhead_lan < 0 or self.overhead_wan < 0:
            raise MpiError("latency overheads must be >= 0")
        if self.copy_bandwidth <= 0:
            raise MpiError("copy bandwidth must be positive")

    # --- engine hooks -------------------------------------------------------------
    def latency_overhead(self, inter_site: bool) -> float:
        return self.overhead_wan if inter_site else self.overhead_lan

    def tcp_options(self) -> TcpOptions:
        return TcpOptions(
            buffer_policy=self.buffer_policy,
            ss_cap_divisor=self.ss_cap_divisor,
            probe_loss_rounds=self.probe_loss_rounds,
            fault_profile=self.fault_profile,
        )

    # --- tuning (the paper's §4.2 recipes) ----------------------------------------------
    def with_eager_threshold(self, nbytes: float) -> "MpiImplementation":
        """§4.2.2: raise the eager/rendezvous threshold (clamped to the
        implementation's maximum)."""
        return replace(
            self, eager_threshold=min(float(nbytes), self.max_eager_threshold)
        )

    def with_socket_buffers(self, nbytes: int) -> "MpiImplementation":
        """§4.2.1, OpenMPI: request explicit socket buffers
        (``-mca btl_tcp_sndbuf/btl_tcp_rcvbuf``).  Only meaningful for
        fixed-buffer implementations; others follow the kernel."""
        if self.buffer_policy.mode != "fixed":
            return self
        return replace(self, buffer_policy=BufferPolicy.fixed(nbytes, nbytes))

    def with_fault_profile(
        self, profile: Optional[FaultProfile]
    ) -> "MpiImplementation":
        """Degrade (or clean, with ``None``) every connection this
        implementation opens — the fault-injection experiment hook."""
        return replace(self, fault_profile=profile)

    def with_collective(self, operation: str, algorithm: str) -> "MpiImplementation":
        """Override one collective algorithm (ablation experiments)."""
        table = dict(self.collectives)
        table[operation] = algorithm
        return replace(self, collectives=table)

    def __repr__(self) -> str:
        thr = "inf" if math.isinf(self.eager_threshold) else f"{int(self.eager_threshold)}B"
        return f"MpiImplementation({self.name!r}, eager<={thr})"


#: Memory copy bandwidth of the testbed's Opterons (DDR333, one channel in
#: practice): used for the unexpected-eager extra copy.
DEFAULT_COPY_BANDWIDTH = 1.5e9
