"""Event combinators: wait for *all* or *any* of a set of events.

``yield AllOf(env, events)`` resumes once every child triggered; its value is
a dict mapping each child event to its value (insertion-ordered, so
``list(result.values())`` matches the order the events were passed in).

``yield any_of(env, events)`` resumes as soon as one child triggers; its
value is that first child's value.

A failing child fails the combinator with the child's exception.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.errors import SimulationError
from repro.sim.core import Event


class AllOf(Event):
    """Triggers when every child event has triggered."""

    __slots__ = ("_events", "_done")

    def __init__(self, env, events: Iterable[Event]):
        super().__init__(env)
        self._events: tuple[Event, ...] = tuple(events)
        self._done: set[Event] = set()
        for event in self._events:
            if event.env is not env:
                raise SimulationError("all events of a condition must share one Environment")
        # Attach after validation so a raised error leaves no dangling callbacks.
        for event in self._events:
            if event.callbacks is None:  # already processed
                self._check(event)
            else:
                event.callbacks.append(self._check)
        if not self._events and not self.triggered:
            self.succeed({})

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                event._defused = True
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._done.add(event)
        if len(self._done) == len(self._events):
            self.succeed(self._collect())

    def _collect(self) -> dict[Event, Any]:
        # Insertion-ordered by the original event tuple.
        return {ev: ev._value for ev in self._events}


def any_of(env, events: Iterable[Event]) -> Event:
    """A plain :class:`Event` that triggers when the first child does.

    Its value is the first child's value (or its exception).  A child that
    was already processed fires it at once; a child that fails after the
    race is decided is defused, so its exception is not re-raised.
    """
    race = Event(env)

    def fire(child: Event) -> None:
        if not child._ok:
            child._defused = True
            if not race.triggered:
                race.fail(child._value)
        elif not race.triggered:
            race.succeed(child._value)

    children = tuple(events)
    if not children:
        raise SimulationError("any_of of no events would never trigger")
    for child in children:
        if child.callbacks is None:  # already processed
            fire(child)
        else:
            child.callbacks.append(fire)
    return race
