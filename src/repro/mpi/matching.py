"""The receive-matching engine: posted-receive and unexpected queues.

MPI's matching rules, implemented the way real MPICH-family engines do it:

* an arriving message first scans the *posted receives* in post order and
  matches the first compatible one;
* a newly posted receive first scans the *unexpected queue* in arrival
  order and matches the first compatible message;
* matching respects the **non-overtaking rule** automatically because
  envelopes from one sender arrive in send order (the transport is FIFO
  per direction) and both queues are scanned in order.

The cost asymmetry of Fig. 4 lives here: an *eager* message that arrives
before its receive is posted goes through the unexpected queue and pays a
memory copy (``nbytes / copy_bandwidth``) when matched; a pre-posted
receive is completed with no extra copy.  A *rendezvous announce* carries
no data — matching it triggers the protocol's ``on_matched`` continuation
(send the ack, then the data).

"Before" is decided in integer engine ticks, with one deliberate
tie-break: an envelope whose arrival tick equals the posting tick is
classified *expected* (no copy) regardless of which event the queue
happened to run first.  Same-instant intra-tick order is a simulator
accident — without the tie-break, the expected/unexpected split (and the
copy charge) would depend on it, which is exactly the schedule
sensitivity the perturbation sanitizer exists to forbid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import MpiError, MpiTruncationError
from repro.mpi.message import Envelope, Status
from repro.mpi.request import Request
from repro.sim.core import Environment
from repro.units import delay_to_ticks


@dataclass
class PostedRecv:
    src: int
    tag: int
    context: str
    request: Request
    max_bytes: Optional[int]

    def accepts(self, env: Envelope) -> bool:
        return env.matches(self.src, self.tag, self.context)


@dataclass
class MailboxStats:
    delivered: int = 0
    expected: int = 0
    unexpected: int = 0
    copies_bytes: float = 0.0


class Mailbox:
    """Per-rank matching engine."""

    def __init__(self, env: Environment, rank: int, copy_bandwidth: float):
        if copy_bandwidth <= 0:
            raise MpiError("copy bandwidth must be positive")
        self.env = env
        self.rank = rank
        self.copy_bandwidth = copy_bandwidth
        self.posted: list[PostedRecv] = []
        self.unexpected: list[Envelope] = []
        self.stats = MailboxStats()

    # -- receive side -----------------------------------------------------------
    def post_recv(
        self,
        src: int,
        tag: int,
        context: str,
        max_bytes: Optional[int] = None,
    ) -> Request:
        """Post a receive; returns its request (may complete later)."""
        request = Request(self.env, "recv")
        for i, envelope in enumerate(self.unexpected):
            if envelope.matches(src, tag, context):
                del self.unexpected[i]
                if envelope.arrived_at_ticks == self.env.now_ticks:
                    # The arrival and this post happened at the same virtual
                    # instant; which ran first is a queue accident, not
                    # physics.  Deterministic tie-break: a tie is *expected*
                    # (no unexpected-queue copy), matching what happens when
                    # the post is processed first — so both intra-tick
                    # orders cost the same and classify the same.
                    self.stats.unexpected -= 1
                    self.stats.expected += 1
                    self._complete_expected(envelope, request, max_bytes)
                else:
                    self._complete_from_unexpected(envelope, request, max_bytes)
                return request
        self.posted.append(PostedRecv(src, tag, context, request, max_bytes))
        return request

    # -- arrival side ------------------------------------------------------------
    def deliver(self, envelope: Envelope) -> None:
        """An envelope arrived from the network (called at arrival time)."""
        self.stats.delivered += 1
        envelope.arrived_at = self.env.now
        envelope.arrived_at_ticks = self.env.now_ticks
        for i, posted in enumerate(self.posted):
            if posted.accepts(envelope):
                del self.posted[i]
                self.stats.expected += 1
                self._complete_posted(envelope, posted)
                return
        self.stats.unexpected += 1
        # Canonical same-instant ordering.  Cross-sender arrival order at one
        # tick is a queue accident MPI leaves unspecified; keeping the
        # unexpected queue sorted by (tick, src, seq) makes ANY_SOURCE
        # matching — table7's merge phase — independent of it.  Per-sender
        # (non-overtaking) order is untouched: one sender's envelopes carry
        # increasing seq and arrive FIFO.
        i = len(self.unexpected)
        while i > 0:
            prev = self.unexpected[i - 1]
            if prev.arrived_at_ticks == envelope.arrived_at_ticks and (
                prev.src,
                prev.seq,
            ) > (envelope.src, envelope.seq):
                i -= 1
            else:
                break
        self.unexpected.insert(i, envelope)

    # -- completion paths ------------------------------------------------------------
    def _check_truncation(self, envelope: Envelope, max_bytes: Optional[int]) -> None:
        if max_bytes is not None and envelope.nbytes > max_bytes:
            raise MpiTruncationError(
                f"rank {self.rank}: message of {envelope.nbytes} B from rank "
                f"{envelope.src} truncates a {max_bytes} B receive buffer"
            )

    def _complete_posted(self, envelope: Envelope, posted: PostedRecv) -> None:
        """The receive was already posted when the envelope arrived."""
        self._complete_expected(envelope, posted.request, posted.max_bytes)

    def _complete_expected(
        self, envelope: Envelope, request: Request, max_bytes: Optional[int]
    ) -> None:
        """Expected-path completion: pre-posted receive, or a same-tick tie."""
        self._check_truncation(envelope, max_bytes)
        if envelope.eager:
            # Direct copy into the user buffer: no extra cost (Fig. 4 arrow 1).
            request._finish(
                (envelope.payload, Status(envelope.src, envelope.tag, envelope.nbytes))
            )
        else:
            # Rendezvous announce: hand control back to the protocol.
            if envelope.on_matched is None:
                raise MpiError("rendezvous announce without continuation")
            envelope.on_matched(request)

    def _complete_from_unexpected(
        self, envelope: Envelope, request: Request, max_bytes: Optional[int]
    ) -> None:
        """The envelope sat in the unexpected queue; the receive came late."""
        self._check_truncation(envelope, max_bytes)
        if envelope.eager:
            # The data landed in a temporary MPI buffer and must now be
            # copied out (Fig. 4 arrow 2).
            copy_time = envelope.nbytes / self.copy_bandwidth
            self.stats.copies_bytes += envelope.nbytes
            self.env.call_at(
                self.env.now_ticks + delay_to_ticks(copy_time),
                lambda: request._finish(
                    (envelope.payload, Status(envelope.src, envelope.tag, envelope.nbytes))
                ),
            )
        else:
            if envelope.on_matched is None:
                raise MpiError("rendezvous announce without continuation")
            envelope.on_matched(request)

    # -- introspection ------------------------------------------------------------------
    def idle(self) -> bool:
        """True when no receives or messages are pending (used by the
        runtime to detect ranks that finished with unconsumed traffic)."""
        return not self.posted and not self.unexpected
