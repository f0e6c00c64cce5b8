"""Per-connection WAN fault knobs, consumed by :mod:`repro.tcp.connection`.

A :class:`FaultProfile` perturbs one TCP connection deterministically: every
random decision is drawn from a named :class:`repro.sim.rng.RngRegistry`
stream derived from ``(profile.seed, direction name)``, so the same profile
on the same topology reproduces the same loss pattern byte-for-byte — in a
serial run, on a process pool, and across machines.

The profile composes with (never replaces) the simulator's deterministic
loss model: queue overflow, slow-start overshoot and BIC probing losses
still fire exactly as without faults; injected losses are *additional*
window cuts, the way real WAN packet drops hit a stream on top of its own
self-induced congestion losses.

``None`` (the default everywhere) means the clean dedicated path of the
paper's testbed; results are then bit-identical to a build without this
module.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import FaultConfigError


@dataclass(frozen=True)
class FaultProfile:
    """Deterministic, seeded degradation of one TCP connection.

    Every effect applies to inter-site routes only: intra-cluster routes
    stay clean, mirroring the paper's pathologies, which live on the
    RENATER WAN path.
    """

    #: master seed of the profile's random streams
    seed: int = 0
    #: probability of an injected loss event per window-limited RTT round
    loss_prob: float = 0.0
    #: extra one-way delay per message, uniform in
    #: ``[0, jitter_frac * one_way_delay]``
    jitter_frac: float = 0.0
    #: multiplier on the route RTT (>= 1; models a degraded/longer path)
    rtt_inflation: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_prob < 1.0:
            raise FaultConfigError(
                f"loss_prob must be in [0, 1), got {self.loss_prob}"
            )
        if self.jitter_frac < 0.0:
            raise FaultConfigError(
                f"jitter_frac must be >= 0, got {self.jitter_frac}"
            )
        if self.rtt_inflation < 1.0:
            raise FaultConfigError(
                f"rtt_inflation must be >= 1, got {self.rtt_inflation}"
            )

    @property
    def active(self) -> bool:
        """Whether the profile perturbs anything at all."""
        return (
            self.loss_prob > 0.0
            or self.jitter_frac > 0.0
            or self.rtt_inflation > 1.0
        )

    def applies_to(self, inter_site: bool) -> bool:
        """Whether this profile touches a route of the given kind."""
        return self.active and inter_site
