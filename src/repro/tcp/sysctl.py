"""Linux TCP sysctls relevant to the paper's tuning (§4.2.1).

Two families of knobs control socket buffer sizes:

* ``net.core.rmem_max`` / ``net.core.wmem_max`` — the ceiling an
  *application* may request with ``setsockopt(SO_RCVBUF/SO_SNDBUF)``.
* ``net.ipv4.tcp_rmem`` / ``tcp_wmem`` — triples ``(min, default, max)``
  steering the kernel **auto-tuning**: a socket that never calls
  ``setsockopt`` starts at *default* and may grow to *max*.

The untuned values below are the Linux 2.6.18 defaults of the paper's
Debian nodes (Table 3).  With an 11.6 ms RTT they cap the window around
128–170 kB, i.e. 90–120 Mbps — exactly the collapse of Fig. 3.  The
paper's fix (§4.2.1) raises the relevant maxima to 4 MB (above the
1.45 MB bandwidth-delay product of the Rennes–Nancy path).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import TcpError
from repro.units import MB


@dataclass(frozen=True)
class BufferTriple:
    """A ``(min, default, max)`` auto-tuning triple in bytes."""

    min_bytes: int
    default_bytes: int
    max_bytes: int

    def __post_init__(self):
        if not (0 < self.min_bytes <= self.default_bytes <= self.max_bytes):
            raise TcpError(
                f"invalid buffer triple ({self.min_bytes}, {self.default_bytes}, "
                f"{self.max_bytes}): must be 0 < min <= default <= max"
            )

    def render(self) -> str:
        return f"{self.min_bytes} {self.default_bytes} {self.max_bytes}"


@dataclass(frozen=True)
class SysctlConfig:
    """The TCP-related kernel configuration of one host."""

    #: ceiling for setsockopt(SO_RCVBUF) requests
    rmem_max: int = 131071
    #: ceiling for setsockopt(SO_SNDBUF) requests
    wmem_max: int = 131071
    #: receive-buffer auto-tuning triple (Linux 2.6.18 defaults)
    tcp_rmem: BufferTriple = field(
        default_factory=lambda: BufferTriple(4096, 87380, 174760)
    )
    #: send-buffer auto-tuning triple (Linux 2.6.18 defaults)
    tcp_wmem: BufferTriple = field(
        default_factory=lambda: BufferTriple(4096, 16384, 174760)
    )
    #: RFC 2861: reset cwnd after an idle period longer than the RTO
    tcp_slow_start_after_idle: bool = True
    #: congestion control algorithm (Table 3: "BIC + Sack")
    congestion_control: str = "bic"

    def __post_init__(self):
        if self.rmem_max <= 0 or self.wmem_max <= 0:
            raise TcpError("rmem_max / wmem_max must be positive")
        if self.congestion_control not in ("bic", "reno"):
            raise TcpError(f"unknown congestion control {self.congestion_control!r}")

    # -- the paper's tuning recipes ------------------------------------------------
    def with_buffer_max(self, nbytes: int = 4 * MB) -> "SysctlConfig":
        """§4.2.1: raise the auto-tuning maxima and the setsockopt ceilings.

        The paper sets 4 MB "for compatibility with the rest of the grid"
        (the Rennes–Nancy BDP alone would need 1.45 MB).
        """
        return replace(
            self,
            rmem_max=nbytes,
            wmem_max=nbytes,
            tcp_rmem=replace(self.tcp_rmem, max_bytes=nbytes),
            tcp_wmem=replace(self.tcp_wmem, max_bytes=nbytes),
        )

    def with_buffer_default(self, nbytes: int = 4 * MB) -> "SysctlConfig":
        """§4.2.1, GridMPI: also raise the *middle* (initial) value.

        GridMPI's sockets effectively keep their initial size, so tuning
        the maxima alone does not help it.
        """
        return replace(
            self,
            tcp_rmem=replace(
                self.tcp_rmem,
                default_bytes=nbytes,
                max_bytes=max(nbytes, self.tcp_rmem.max_bytes),
            ),
            tcp_wmem=replace(
                self.tcp_wmem,
                default_bytes=nbytes,
                max_bytes=max(nbytes, self.tcp_wmem.max_bytes),
            ),
        )

    def render_commands(self) -> list[str]:
        """The shell commands a Grid'5000 user would run for this config."""
        return [
            f"echo {self.rmem_max} > /proc/sys/net/core/rmem_max",
            f"echo {self.wmem_max} > /proc/sys/net/core/wmem_max",
            f"echo '{self.tcp_rmem.render()}' > /proc/sys/net/ipv4/tcp_rmem",
            f"echo '{self.tcp_wmem.render()}' > /proc/sys/net/ipv4/tcp_wmem",
        ]


#: Out-of-the-box configuration of the paper's Debian / 2.6.18 nodes.
DEFAULT_SYSCTLS = SysctlConfig()

#: The paper's tuned configuration (4 MB everywhere, §4.2.1).
TUNED_SYSCTLS = SysctlConfig().with_buffer_max(4 * MB).with_buffer_default(4 * MB)

#: Tuned maxima but untouched defaults — what a sysadmin gets after applying
#: only the first half of §4.2.1 (sufficient for auto-tuned sockets, not for
#: GridMPI's).
TUNED_MAX_ONLY_SYSCTLS = SysctlConfig().with_buffer_max(4 * MB)
