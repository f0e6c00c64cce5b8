"""A waitable lock for the discrete-event engine.

:class:`Resource`
    A FIFO lock: it serialises one transfer at a time on a TCP connection
    direction or an intra-node memcpy.  An uncontended request is granted
    on the spot: it comes back already processed, so the caller can skip
    the ``yield`` and no queue entry is spent on it.  The wait queue is
    made on first contention, so a lock that is never contended holds no
    queue at all.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.errors import SimulationError
from repro.sim.core import Environment, Event


class ResourceRequest(Event):
    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource
        if resource._holder is None:
            # Uncontended: grant synchronously.  The request is born
            # processed (``yield``-ing it still works, via the engine's
            # already-processed path).
            resource._holder = self
            self._value = None
            self.callbacks = None
        else:
            # Waiters only exist while the lock is held, so this request
            # queues FIFO behind them until a release hands the lock over.
            waiters = resource._waiters
            if waiters is None:
                waiters = resource._waiters = deque()
            waiters.append(self)


class Resource:
    """FIFO lock whose requests are events."""

    __slots__ = ("env", "_holder", "_waiters")

    def __init__(self, env: Environment):
        self.env = env
        self._holder: Optional[ResourceRequest] = None
        self._waiters: Optional[deque[ResourceRequest]] = None

    @property
    def count(self) -> int:
        """Number of current holders (0 or 1)."""
        return 0 if self._holder is None else 1

    def request(self) -> ResourceRequest:
        """Ask for the lock.  Check ``processed`` on the result: a granted
        request needs no ``yield``; a queued one is waited on as usual."""
        return ResourceRequest(self)

    def release(self, request: ResourceRequest) -> None:
        if request is not self._holder:
            raise SimulationError("releasing a request that does not hold the resource")
        waiters = self._waiters
        if waiters:
            self._holder = nxt = waiters.popleft()
            nxt.succeed()
        else:
            self._holder = None
