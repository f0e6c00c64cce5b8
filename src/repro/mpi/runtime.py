"""The MPI runtime: places ranks on nodes, runs SPMD programs, collects results.

A *program* is a generator function ``program(ctx)`` where ``ctx`` is a
:class:`RankContext` giving access to the communicator, the rank's node
(for compute-time charging) and a per-rank deterministic random stream.
Every rank runs the same program (SPMD), starting at virtual time zero::

    def program(ctx):
        data = np.arange(4.0) * ctx.rank
        total = yield from ctx.comm.allreduce(data, nbytes=data.nbytes)
        yield from ctx.compute(flop=1e9)
        return float(total.sum())

    job = MpiJob(network, impl, placement)
    result = job.run(program)
    print(result.makespan, result.returns)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import MpiError
from repro.mpi.communicator import Communicator
from repro.mpi.matching import Mailbox
from repro.mpi.protocol import Protocol
from repro.mpi.tracing import MessageTrace
from repro.mpi.transport import Transport
from repro.net.topology import Network, Node
from repro.obs import runtime as _obs
from repro.sim.core import Environment
from repro.sim.rng import RngRegistry
from repro.sim.sync import AllOf
from repro.tcp.connection import Fabric
from repro.tcp.sysctl import DEFAULT_SYSCTLS, SysctlConfig


class RankContext:
    """Everything one rank's program can touch.

    ``rng`` is the rank's deterministic random stream, ``rank<r>`` in the
    job's :class:`RngRegistry`.  It is built on first read and cached there,
    so a program that draws nothing never builds a generator or loads numpy.
    The context holds the pieces it reads, not the job.
    """

    def __init__(self, comm: Communicator, node: Node, rngs: RngRegistry):
        self.comm = comm
        self.rank = comm.rank
        self.node = node
        self.env: Environment = comm.env
        self._rngs = rngs

    @property
    def rng(self):
        return self._rngs.stream(f"rank{self.rank}")

    @property
    def size(self) -> int:
        return self.comm.size

    def compute(self, flop: float):
        """Generator: charge ``flop`` floating-point operations of work at
        this node's effective speed."""
        if flop < 0:
            raise MpiError(f"negative flop count {flop}")
        yield self.env.timeout(self.node.compute_seconds(flop))

    def compute_time(self, seconds: float):
        """Generator: charge a fixed amount of local work."""
        if seconds < 0:
            raise MpiError(f"negative compute time {seconds}")
        yield self.env.timeout(seconds)

    def wtime(self) -> float:
        return self.env.now


@dataclass
class JobResult:
    """Outcome of one MPI job."""

    makespan: float
    rank_times: list[float]
    returns: list[Any]
    trace: MessageTrace
    #: per-rank matching statistics
    mailbox_stats: list

    @property
    def nprocs(self) -> int:
        return len(self.rank_times)


class MpiJob:
    """One simulated ``mpirun``: an implementation, a placement, a fabric.

    Ownership runs one way, from the job down: no communicator, context or
    rank process refers back to the job, so a dropped job and everything
    it opened (fabric, transport, connections) are freed by refcount, with
    no wait for a cyclic garbage collection.
    """

    def __init__(
        self,
        network: Network,
        impl,
        placement: list[Node],
        sysctls: "SysctlConfig | dict[str, SysctlConfig] | None" = None,
        trace: bool = True,
        seed: int = 0,
    ):
        if not placement:
            raise MpiError("placement must name at least one node")
        self.network = network
        self.impl = impl
        self.placement = list(placement)
        self.nprocs = len(placement)
        self.env = Environment()
        self.rngs = RngRegistry(seed)

        if sysctls is None:
            self.fabric = Fabric(self.env, network, DEFAULT_SYSCTLS)
        elif isinstance(sysctls, SysctlConfig):
            self.fabric = Fabric(self.env, network, sysctls)
        else:
            self.fabric = Fabric(self.env, network, DEFAULT_SYSCTLS)
            for cluster, config in sysctls.items():
                self.fabric.set_sysctls(config, cluster=cluster)

        self.transport = Transport(self.fabric, self.placement, impl.tcp_options())
        self.mailboxes = [
            Mailbox(self.env, r, impl.copy_bandwidth) for r in range(self.nprocs)
        ]
        self.trace = MessageTrace(enabled=trace)
        self.protocol = Protocol(
            self.env, self.transport, impl, self.mailboxes, self.trace
        )
        self.comms = [Communicator(self.protocol, r) for r in range(self.nprocs)]
        self.contexts = [
            RankContext(comm, node, self.rngs)
            for comm, node in zip(self.comms, self.placement)
        ]

    def run(self, program: Callable) -> JobResult:
        """Run ``program`` on every rank until every rank returns."""
        env = self.env
        contexts = self.contexts
        finish_times = [float("nan")] * self.nprocs
        returns: list[Any] = [None] * self.nprocs

        sess = _obs.ACTIVE
        if sess is not None and sess.spans:
            # Episode marker: every job restarts the virtual clock at zero,
            # so spans of consecutive jobs on one track overlap in time.
            # The aggregation layer (obs/aggregate.py) splits a track's
            # record stream at these instants and attributes each episode
            # to the implementation named here.
            sess.instant(
                0.0,
                "mpi.job.begin",
                "mpi",
                "job",
                {"impl": self.impl.name, "nprocs": self.nprocs},
            )

        def wrapper(rank: int):
            value = yield from program(contexts[rank])
            finish_times[rank] = env.now
            returns[rank] = value

        procs = [
            env.process(wrapper(r), name=f"rank{r}") for r in range(self.nprocs)
        ]
        env.run(until=AllOf(env, procs))

        makespan = max(finish_times)
        sess = _obs.ACTIVE
        if sess is not None:
            if sess.spans:
                sess.complete(
                    0.0,
                    makespan,
                    "mpi.job",
                    "mpi",
                    "job",
                    {"impl": self.impl.name, "nprocs": self.nprocs},
                )
            sess.count("mpi.jobs", impl=self.impl.name)
            sess.gauge(
                "mpi.job.makespan_s", makespan, impl=self.impl.name,
                nprocs=self.nprocs,
            )
        return JobResult(
            makespan=makespan,
            rank_times=finish_times,
            returns=returns,
            trace=self.trace,
            mailbox_stats=[m.stats for m in self.mailboxes],
        )
