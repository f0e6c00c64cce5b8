"""Message envelopes and receive status."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional


@dataclass
class Envelope:
    """Everything the matching engine needs to know about a message."""

    src: int
    dst: int
    tag: int
    context: str  # POINT_TO_POINT_CONTEXT or COLLECTIVE_CONTEXT
    nbytes: int
    payload: Any = None
    #: per-(src, context) sequence number — debugging / ordering assertions
    seq: int = 0
    #: eager data is available on arrival; a rendezvous announce is not
    eager: bool = True
    #: rendezvous handshake id (None for eager)
    rndv_id: Optional[int] = None
    #: simulation time the envelope arrived at the receiver
    arrived_at: float = 0.0
    #: arrival instant in integer engine ticks — exact, so the matching
    #: engine can recognise an arrival tied with a same-instant post_recv
    arrived_at_ticks: int = 0
    #: rendezvous continuation, set by the protocol: called with the
    #: matched receive request (the announce carries no data)
    on_matched: Optional[Any] = None

    def matches(self, src: int, tag: int, context: str) -> bool:
        from repro.mpi.constants import ANY_SOURCE, ANY_TAG

        if context != self.context:
            return False
        if src != ANY_SOURCE and src != self.src:
            return False
        if tag != ANY_TAG and tag != self.tag:
            return False
        return True


@dataclass(frozen=True)
class Status:
    """Result metadata of a completed receive (mirrors ``MPI_Status``)."""

    source: int
    tag: int
    nbytes: int
