"""Waitable queues and resources for the discrete-event engine.

:class:`Store`
    An unbounded (or bounded) FIFO of items; ``put`` and ``get`` return
    events.  This is the building block of NIC queues and MPI match queues.
:class:`PriorityStore`
    A store whose ``get`` returns the smallest item first.
:class:`Channel`
    A Store plus a convenience non-blocking ``put_nowait`` used for
    signalling between protocol engines.
:class:`Resource`
    Counting semaphore with FIFO fairness (used e.g. to model a NIC that
    serialises one frame at a time).  An uncontended request is granted on
    the spot: it comes back already processed, so the caller can skip the
    ``yield`` and no queue entry is spent on it.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Generic, TypeVar

from repro.errors import SimulationError
from repro.sim.core import Environment, Event

T = TypeVar("T")


class StorePut(Event):
    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any):
        super().__init__(store.env)
        self.item = item
        store._put_waiters.append(self)
        store._dispatch()


class StoreGet(Event):
    __slots__ = ()

    def __init__(self, store: "Store"):
        super().__init__(store.env)
        store._get_waiters.append(self)
        store._dispatch()


class Store(Generic[T]):
    """FIFO store of items with optional capacity."""

    def __init__(self, env: Environment, capacity: float = float("inf")):
        if capacity <= 0:
            raise SimulationError(f"store capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.items: deque[T] = deque()
        self._put_waiters: deque[StorePut] = deque()
        self._get_waiters: deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: T) -> StorePut:
        """Event that triggers once ``item`` has been accepted."""
        return StorePut(self, item)

    def get(self) -> StoreGet:
        """Event that triggers with the next item."""
        return StoreGet(self)

    # -- internals -------------------------------------------------------------
    def _do_put(self, item: T) -> None:
        self.items.append(item)

    def _do_get(self) -> T:
        return self.items.popleft()

    def _dispatch(self) -> None:
        progress = True
        while progress:
            progress = False
            while self._put_waiters and len(self.items) < self.capacity:
                put = self._put_waiters.popleft()
                self._do_put(put.item)
                put.succeed()
                progress = True
            while self._get_waiters and self.items:
                get = self._get_waiters.popleft()
                get.succeed(self._do_get())
                progress = True


class PriorityStore(Store[T]):
    """Store whose :meth:`get` yields the smallest item first."""

    def __init__(self, env: Environment, capacity: float = float("inf")):
        super().__init__(env, capacity)
        self._heap: list[T] = []

    def __len__(self) -> int:
        return len(self._heap)

    def _do_put(self, item: T) -> None:
        heapq.heappush(self._heap, item)

    def _do_get(self) -> T:
        return heapq.heappop(self._heap)

    def _dispatch(self) -> None:
        progress = True
        while progress:
            progress = False
            while self._put_waiters and len(self._heap) < self.capacity:
                put = self._put_waiters.popleft()
                self._do_put(put.item)
                put.succeed()
                progress = True
            while self._get_waiters and self._heap:
                get = self._get_waiters.popleft()
                get.succeed(self._do_get())
                progress = True


class Channel(Store[T]):
    """Unbounded store with a non-waiting put (always succeeds immediately)."""

    def put_nowait(self, item: T) -> None:
        StorePut(self, item)

    @property
    def pending(self) -> int:
        """Number of queued items not yet consumed."""
        return len(self.items)


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

    def release(self) -> None:
        self.resource.release(self)


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
