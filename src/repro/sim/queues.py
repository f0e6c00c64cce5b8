"""A waitable resource for the discrete-event engine.

:class:`Resource`
    Counting semaphore with FIFO fairness: it serialises one transfer at a
    time on a TCP connection direction, a fabric link or an intra-node
    memcpy.  An uncontended request is granted on the spot: it comes back
    already processed, so the caller can skip the ``yield`` and no queue
    entry is spent on it.
"""

from __future__ import annotations

from collections import deque

from repro.errors import SimulationError
from repro.sim.core import Environment, Event


class ResourceRequest(Event):
    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource
        if not resource._waiters and len(resource._users) < resource.capacity:
            # Uncontended: grant synchronously.  The request is born
            # processed (``yield``-ing it still works, via the engine's
            # already-processed path).
            resource._users.add(self)
            self._value = self
            self.callbacks = None
        else:
            # Waiters only exist while every unit is held, so this request
            # queues FIFO behind them until a release dispatches it.
            resource._waiters.append(self)


class Resource:
    """Counting semaphore with FIFO granting."""

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._users: set[ResourceRequest] = set()
        self._waiters: deque[ResourceRequest] = deque()

    @property
    def count(self) -> int:
        """Number of current holders."""
        return len(self._users)

    def request(self) -> ResourceRequest:
        """Ask for one unit.  Check ``processed`` on the result: a granted
        request needs no ``yield``; a queued one is waited on as usual."""
        return ResourceRequest(self)

    def release(self, request: ResourceRequest) -> None:
        if request not in self._users:
            raise SimulationError("releasing a request that does not hold the resource")
        self._users.discard(request)
        self._dispatch()

    def _dispatch(self) -> None:
        while self._waiters and len(self._users) < self.capacity:
            req = self._waiters.popleft()
            self._users.add(req)
            req.succeed(req)
