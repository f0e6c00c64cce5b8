"""The eager / rendezvous point-to-point protocol (paper §4.2.2, Fig. 4).

*Eager* — the payload is pushed immediately (with a small header).  The
send completes when the local socket drained; the receiver either matches
a posted receive at arrival (no copy) or parks the message in the
unexpected queue (a copy is charged when the receive shows up).

*Rendezvous* — a small ``MPI_Request`` control message announces the send;
when the receiver matches it, an acknowledgement travels back and only
then does the payload move, landing directly in the user buffer.  The
handshake costs one extra round trip — negligible at 58 µs in a cluster,
ruinous at 11.6 ms across the grid.  The eager→rendezvous threshold is
the per-implementation knob of Table 5.

The choice is made per message against ``impl.eager_threshold``; the
implementation also contributes its software latency overhead (Table 4)
and a per-byte staging cost (OpenMPI's lower large-message bandwidth in
Fig. 7).
"""

from __future__ import annotations

import itertools
from typing import Any

from repro.errors import MpiError
from repro.mpi.matching import Mailbox
from repro.obs import runtime as _obs
from repro.mpi.message import Envelope, Status
from repro.mpi.request import Request
from repro.mpi.tracing import MessageTrace
from repro.mpi.transport import Transport
from repro.sim.core import Environment
from repro.units import delay_to_ticks

#: wire size of the eager header prepended to the payload
EAGER_HEADER_BYTES = 40
#: wire size of the rendezvous request / acknowledgement control messages
RNDV_CONTROL_BYTES = 32


class Protocol:
    """Shared point-to-point engine of one MPI job."""

    def __init__(
        self,
        env: Environment,
        transport: Transport,
        impl: Any,
        mailboxes: list[Mailbox],
        trace: MessageTrace,
    ):
        self.env = env
        self.transport = transport
        self.impl = impl
        self.mailboxes = mailboxes
        self.trace = trace
        self._rndv_ids = itertools.count()
        self._rndv_pending: dict[int, Request] = {}
        self._seq: dict[tuple[int, int, str], int] = {}

    # -- helpers -------------------------------------------------------------------
    def _at(self, when: float, fn) -> None:
        """Run ``fn()`` at absolute simulation time ``when``.

        One engine callback, on the tick a ``timeout(when - now)`` would
        fire: the arrival needs no process of its own.
        """
        delay = when - self.env.now
        if delay < 0:
            raise MpiError(f"delivery scheduled {delay}s in the past")
        self.env.call_at(self.env.now_ticks + delay_to_ticks(delay), fn)

    def _next_seq(self, src: int, dst: int, context: str) -> int:
        key = (src, dst, context)
        seq = self._seq.get(key, 0)
        self._seq[key] = seq + 1
        return seq

    def _sites(self, src: int, dst: int) -> dict:
        """Site-pair args for a span between two ranks."""
        return {
            "src_site": self.transport.node_of(src).cluster.name,
            "dst_site": self.transport.node_of(dst).cluster.name,
        }

    # -- the send path ---------------------------------------------------------------
    def send(
        self,
        src: int,
        dst: int,
        tag: int,
        nbytes: int,
        payload: Any,
        context: str,
    ):
        """Generator: perform one MPI-level send.

        Completes with eager semantics (local buffering) below the
        threshold, rendezvous semantics (synchronising) above it.
        """
        if nbytes < 0:
            raise MpiError(f"cannot send {nbytes} bytes")
        if not (0 <= dst < self.transport.nprocs):
            raise MpiError(f"invalid destination rank {dst}")
        env = self.env
        impl = self.impl
        link = self.transport.link(src, dst)
        self.trace.record_p2p(nbytes, context)
        if link.inter_site:
            self.trace.record_inter_site(nbytes)

        sess = _obs.ACTIVE
        t_post = env.now
        lane = f"rank{src}->{dst}"
        if sess is not None and sess.spans:
            # Site-pair tags feed the WAN-time matrix (obs/aggregate.py);
            # resolved once per send, only while spans are recorded.
            sites = self._sites(src, dst)
        else:
            sites = None
        if sess is not None and sess.metrics:
            eager = nbytes <= impl.eager_threshold
            sess.count(
                "mpi.sends",
                impl=impl.name,
                proto="eager" if eager else "rndv",
                wan=link.inter_site,
                context=context,
            )
            sess.observe("mpi.message_bytes", nbytes, impl=impl.name, context=context)
            if link.inter_site:
                sess.count("mpi.wan_bytes", inc=float(nbytes), impl=impl.name)

        # Sender software overhead + per-byte staging cost.
        setup = impl.latency_overhead(link.inter_site) + nbytes * impl.per_byte_overhead
        if setup > 0:
            yield env.timeout(setup)

        envelope = Envelope(
            src=src,
            dst=dst,
            tag=tag,
            context=context,
            nbytes=nbytes,
            payload=payload,
            seq=self._next_seq(src, dst, context),
        )

        if nbytes <= impl.eager_threshold:
            arrival = yield from link.transmit(nbytes + EAGER_HEADER_BYTES)
            self._at(arrival, lambda: self.mailboxes[dst].deliver(envelope))
            if sess is not None and sess.spans:
                # Post -> receiver-side arrival of the (buffered) payload.
                sess.complete(
                    t_post,
                    arrival - t_post,
                    "mpi.send.eager",
                    "mpi.p2p",
                    lane,
                    {"bytes": nbytes, "tag": tag},
                )
            return

        # --- rendezvous ---
        rndv_id = next(self._rndv_ids)
        envelope.eager = False
        envelope.rndv_id = rndv_id
        ack = env.event()
        envelope.on_matched = lambda request: self._rndv_matched(
            envelope, request, ack
        )
        t_announce = env.now
        arrival = yield from link.transmit(RNDV_CONTROL_BYTES)
        self._at(arrival, lambda: self.mailboxes[dst].deliver(envelope))
        if sess is not None and sess.spans:
            sess.complete(
                t_announce,
                arrival - t_announce,
                "rndv.announce",
                "mpi.rndv",
                lane,
                {"bytes": nbytes, "tag": tag, **sites},
            )
        yield ack  # fires when the receiver's acknowledgement reaches us
        if sess is not None:
            if sess.spans:
                # The full eager->rendezvous handshake: send post to ack in
                # hand.  One extra round trip — 58 us in the cluster,
                # ruinous 11.6 ms across the grid (paper SS4.2.2).
                sess.complete(
                    t_post,
                    env.now - t_post,
                    "rndv.handshake",
                    "mpi.rndv",
                    lane,
                    {"bytes": nbytes, "tag": tag, **sites},
                )
            if sess.metrics:
                sess.count("mpi.rndv_handshakes", impl=impl.name, wan=link.inter_site)
                sess.count(
                    "mpi.rndv_handshake_seconds",
                    inc=env.now - t_post,
                    impl=impl.name,
                    wan=link.inter_site,
                )
        t_data = env.now
        data_arrival = yield from link.transmit(nbytes + EAGER_HEADER_BYTES)
        if sess is not None and sess.spans:
            sess.complete(
                t_data,
                data_arrival - t_data,
                "rndv.data",
                "mpi.rndv",
                lane,
                {"bytes": nbytes, "tag": tag, **sites},
            )

        def complete():
            request = self._rndv_pending.pop(rndv_id)
            request._finish((payload, Status(src, tag, nbytes)))

        self._at(data_arrival, complete)

    def _rndv_matched(self, envelope: Envelope, request: Request, ack) -> None:
        """The receiver matched a rendezvous announce: send the ack back."""
        self._rndv_pending[envelope.rndv_id] = request
        rlink = self.transport.link(envelope.dst, envelope.src)

        def responder():
            t_ack = self.env.now
            overhead = self.impl.latency_overhead(rlink.inter_site)
            if overhead > 0:
                yield self.env.timeout(overhead)
            ack_arrival = yield from rlink.transmit(RNDV_CONTROL_BYTES)
            self._at(ack_arrival, ack.succeed)
            sess = _obs.ACTIVE
            if sess is not None and sess.spans:
                sess.complete(
                    t_ack,
                    ack_arrival - t_ack,
                    "rndv.ack",
                    "mpi.rndv",
                    f"rank{envelope.dst}->{envelope.src}",
                    {"bytes": envelope.nbytes, **self._sites(envelope.dst, envelope.src)},
                )

        self.env.process(responder())
