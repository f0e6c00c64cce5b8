"""The communicator: the MPI API surface used by rank programs.

All communication methods are generators (``yield from comm.send(...)``)
except the non-blocking ``isend``/``irecv`` which return
:class:`~repro.mpi.request.Request` handles immediately.

Collective operations dispatch to the algorithm selected by the MPI
implementation model (``impl.collectives``); every collective consumes one
internal tag from a per-communicator sequence, which is identical across
ranks because MPI requires all ranks to call collectives in the same
order.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.errors import MpiError
from repro.mpi import collectives as coll
from repro.mpi.constants import (
    ANY_SOURCE,
    ANY_TAG,
    COLLECTIVE_CONTEXT,
    POINT_TO_POINT_CONTEXT,
    SUM,
    ReduceOp,
)
from repro.mpi.protocol import Protocol
from repro.mpi.request import Request, waitall, waitany
from repro.obs import runtime as _obs


class Communicator:
    """Per-rank facade over the job's shared protocol (≈ ``MPI_COMM_WORLD``).

    It holds the protocol and its own mailbox, not the job, so that a
    finished job's transport is freed as soon as the job is dropped.
    """

    def __init__(self, protocol: Protocol, rank: int):
        self._protocol = protocol
        self._mailbox = protocol.mailboxes[rank]
        self.rank = rank
        self.size = protocol.transport.nprocs
        self.env = protocol.env
        self._coll_seq = 0

    # ------------------------------------------------------------------ helpers
    def _check_rank(self, rank: int, what: str) -> None:
        if not (0 <= rank < self.size):
            raise MpiError(f"invalid {what} rank {rank} (size={self.size})")

    def _check_tag(self, tag: int) -> None:
        if tag < 0:
            raise MpiError(f"user tags must be >= 0, got {tag}")

    def cluster_of_ranks(self) -> list[str]:
        """Cluster name of every rank (used by topology-aware collectives)."""
        return [node.cluster.name for node in self._protocol.transport.placement]

    # ------------------------------------------------------- point-to-point (blocking)
    def send(self, dst: int, nbytes: int = 0, tag: int = 0, payload: Any = None):
        """Generator: blocking send (eager: until buffered; rendezvous:
        until the payload is on its way after the handshake)."""
        self._check_rank(dst, "destination")
        self._check_tag(tag)
        yield from self._protocol.send(
            self.rank, dst, tag, nbytes, payload, POINT_TO_POINT_CONTEXT
        )

    def recv(
        self,
        src: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        max_bytes: Optional[int] = None,
    ):
        """Generator: blocking receive; returns ``(payload, Status)``."""
        request = self.irecv(src, tag, max_bytes)
        result = yield request.event
        return result

    def sendrecv(
        self,
        dst: int,
        nbytes: int,
        payload: Any = None,
        src: int = ANY_SOURCE,
        send_tag: int = 0,
        recv_tag: int = ANY_TAG,
    ):
        """Generator: simultaneous send and receive (deadlock-free)."""
        send_req = self.isend(dst, nbytes, send_tag, payload)
        result = yield from self.recv(src, recv_tag)
        yield from send_req.wait()
        return result

    # ------------------------------------------------------- point-to-point (non-blocking)
    def isend(
        self, dst: int, nbytes: int = 0, tag: int = 0, payload: Any = None
    ) -> Request:
        self._check_rank(dst, "destination")
        self._check_tag(tag)
        return self._start_send(dst, nbytes, tag, payload, POINT_TO_POINT_CONTEXT)

    def irecv(
        self,
        src: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        max_bytes: Optional[int] = None,
    ) -> Request:
        if src != ANY_SOURCE:
            self._check_rank(src, "source")
        if tag != ANY_TAG:
            self._check_tag(tag)
        return self._mailbox.post_recv(src, tag, POINT_TO_POINT_CONTEXT, max_bytes)

    def waitall(self, requests: list[Request]):
        """Generator: wait for every request (``MPI_Waitall``)."""
        results = yield from waitall(self.env, requests)
        return results

    def waitany(self, requests: list[Request]):
        """Generator: wait for one request; returns ``(index, result)``."""
        result = yield from waitany(self.env, requests)
        return result

    def _start_send(
        self, dst: int, nbytes: int, tag: int, payload: Any, context: str
    ) -> Request:
        request = Request(self.env, "send")

        def runner():
            yield from self._protocol.send(
                self.rank, dst, tag, nbytes, payload, context
            )
            request._finish(None)

        self.env.process(runner(), name=f"isend[{self.rank}->{dst}]")
        return request

    # ------------------------------------------------------- collective internals
    def _next_coll_tag(self) -> int:
        tag = self._coll_seq
        self._coll_seq += 1
        return tag

    def _csend(self, dst: int, nbytes: int, payload: Any, tag: int):
        yield from self._protocol.send(
            self.rank, dst, tag, nbytes, payload, COLLECTIVE_CONTEXT
        )

    def _cisend(self, dst: int, nbytes: int, payload: Any, tag: int) -> Request:
        return self._start_send(dst, nbytes, tag, payload, COLLECTIVE_CONTEXT)

    def _crecv(self, src: int, tag: int):
        request = self._mailbox.post_recv(src, tag, COLLECTIVE_CONTEXT, None)
        result = yield request.event
        return result

    def _algorithm(self, operation: str):
        impl = self._protocol.impl
        name = impl.collectives.get(operation, coll.DEFAULTS[operation])
        algorithm = coll.resolve(operation, name)
        sess = _obs.ACTIVE
        if sess is None:
            return algorithm
        sess.count(
            "mpi.collective_calls",
            op=operation,
            algorithm=name,
            impl=impl.name,
        )
        if not sess.spans:
            return algorithm

        def traced(*args, **kwargs):
            # One span per rank per collective call: entry to local
            # completion, tagged with the algorithm the implementation
            # model selected (the per-primitive choice of Table 1).
            t_enter = self.env.now
            result = yield from algorithm(*args, **kwargs)
            sess.complete(
                t_enter,
                self.env.now - t_enter,
                f"coll.{operation}",
                "mpi.collective",
                f"rank{self.rank}",
                {"algorithm": name},
            )
            return result

        return traced

    # ------------------------------------------------------------- collectives
    def barrier(self):
        self._protocol.trace.record_collective("barrier")
        tag = self._next_coll_tag()
        yield from self._algorithm("barrier")(self, tag)

    def bcast(self, payload: Any = None, nbytes: int = 0, root: int = 0):
        self._check_rank(root, "root")
        self._protocol.trace.record_collective("bcast")
        tag = self._next_coll_tag()
        result = yield from self._algorithm("bcast")(self, tag, root, nbytes, payload)
        return result

    def reduce(
        self, payload: Any = None, nbytes: int = 0, op: ReduceOp = SUM, root: int = 0
    ):
        self._check_rank(root, "root")
        self._protocol.trace.record_collective("reduce")
        tag = self._next_coll_tag()
        result = yield from self._algorithm("reduce")(
            self, tag, root, nbytes, payload, op
        )
        return result

    def allreduce(self, payload: Any = None, nbytes: int = 0, op: ReduceOp = SUM):
        self._protocol.trace.record_collective("allreduce")
        tag = self._next_coll_tag()
        result = yield from self._algorithm("allreduce")(self, tag, nbytes, payload, op)
        return result

    def gather(self, payload: Any = None, nbytes_each: int = 0, root: int = 0):
        self._check_rank(root, "root")
        self._protocol.trace.record_collective("gather")
        tag = self._next_coll_tag()
        result = yield from self._algorithm("gather")(
            self, tag, root, nbytes_each, payload
        )
        return result

    def allgather(self, payload: Any = None, nbytes_each: int = 0):
        self._protocol.trace.record_collective("allgather")
        tag = self._next_coll_tag()
        result = yield from self._algorithm("allgather")(self, tag, nbytes_each, payload)
        return result

    def alltoallv(
        self,
        send_sizes: Sequence[int],
        payloads: Optional[Sequence] = None,
    ):
        self._protocol.trace.record_collective("alltoallv")
        tag = self._next_coll_tag()
        result = yield from self._algorithm("alltoallv")(self, tag, send_sizes, payloads)
        return result

    # -------------------------------------------------------------------- misc
    def wtime(self) -> float:
        """Current simulation time (``MPI_Wtime``)."""
        return self.env.now

    def abort(self, reason: str = ""):
        from repro.errors import MpiAbortError

        raise MpiAbortError(f"rank {self.rank} called abort: {reason}")

    def __repr__(self) -> str:
        return f"<Communicator rank={self.rank} size={self.size}>"
