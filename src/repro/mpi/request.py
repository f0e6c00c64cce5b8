"""Non-blocking operation handles (``MPI_Request`` equivalents)."""

from __future__ import annotations

from typing import Any

from repro.errors import MpiError
from repro.sim.core import Environment, Event


class Request:
    """Handle to an in-flight isend/irecv.

    ``yield request.wait()`` blocks until completion and returns
    ``(payload, status)`` for receives or ``None`` for sends.
    ``request.test()`` polls without blocking.
    """

    def __init__(self, env: Environment, kind: str):
        if kind not in ("send", "recv"):
            raise MpiError(f"unknown request kind {kind!r}")
        self.env = env
        self.kind = kind
        self.event: Event = env.event()

    @property
    def complete(self) -> bool:
        return self.event.triggered

    def test(self) -> bool:
        """Non-blocking completion check (``MPI_Test``)."""
        return self.complete

    def wait(self):
        """Generator: block until complete; returns the operation result."""
        result = yield self.event
        return result

    def result(self) -> Any:
        """The value of a completed request (raises if still pending)."""
        if not self.complete:
            raise MpiError("request not complete")
        return self.event.value

    def _finish(self, value: Any = None) -> None:
        self.event.succeed(value)

    def __repr__(self) -> str:
        state = "complete" if self.complete else "pending"
        return f"<Request {self.kind} {state}>"


def waitall(env: Environment, requests: list[Request]):
    """Generator: wait for every request; returns their results in order."""
    results = []
    for req in requests:
        results.append((yield from req.wait()))
    return results


def waitany(env: Environment, requests: list[Request]):
    """Generator: wait until at least one request completes; returns the
    index and result of the first completed one (by list order)."""
    from repro.sim.sync import any_of

    if not requests:
        raise MpiError("waitany of no requests")
    pending = [r for r in requests if not r.complete]
    if pending:
        yield any_of(env, [r.event for r in pending])
    for i, req in enumerate(requests):
        if req.complete:
            return i, req.event.value
    raise MpiError("waitany: any_of fired but nothing complete")
