"""Core of the discrete-event engine: events, processes, the environment.

Design notes
------------
* Virtual time is an **integer count of nanosecond ticks**
  (:data:`repro.units.TICKS_PER_SECOND`).  Integers compare exactly, so
  "same timestamp" is a well-defined notion (two paths computing the same
  instant always collide, never land 1 ulp apart) and long simulations
  cannot lose precision to float accumulation.  Floats appear only at the
  public second-valued boundary: ``now``/``peek`` divide ticks back to
  seconds (correctly rounded), ``timeout``/``run`` convert seconds to
  ticks with guarded rounding (``units.delay_to_ticks`` — never early,
  exact for tick-representable values).
* The event queue is a binary heap of ``(ticks, priority, sequence, event)``
  tuples.  The monotonically increasing sequence number makes scheduling
  FIFO-stable, which in turn makes every simulation in this library fully
  deterministic (asserted by tests).
* Process resumptions are scheduled at priority :data:`URGENT` so that a
  process continues before same-time timeouts of other processes fire,
  matching the intuition that a coroutine runs until it blocks.
* :meth:`Environment.call_at` schedules a plain callback: a heap entry
  that runs ``fn()`` when popped, with no event, generator or process.
  Deliveries and completion timers that nobody waits on use it, so a
  message pays one queue entry for its arrival instead of a spawned
  process (Initialize, Timeout and the process's own completion).
* A failed event whose exception nobody consumed is re-raised by
  :meth:`Environment.step` — silent failures in rank programs would
  otherwise corrupt experiment results.
"""

from __future__ import annotations

import hashlib
import heapq
from collections.abc import Generator
from contextlib import contextmanager
from typing import Any, Callable, Optional

from repro.errors import SimulationError
from repro.obs import runtime as _obs
from repro.units import TICKS_PER_SECOND, delay_to_ticks, horizon_to_ticks

URGENT = 0
NORMAL = 1

PENDING = object()  # sentinel: event value not yet decided

#: Active trace sinks: callables ``(time_ticks, priority, seq, event)``
#: invoked for every popped queue entry; the time is the engine's integer
#: tick count (exact, so projections can group by equality).  Installed
#: globally (not per-Environment) so the determinism sanitizer can observe
#: experiments that build their own Environments internally.  Empty in
#: normal operation — ``step()`` pays one truthiness check.
_TRACE_SINKS: list[Callable[[int, int, int, "Event | Call"], None]] = []

#: Optional tie ranker: maps the monotonically increasing sequence number to
#: the tie-breaking key actually pushed onto the heap.  ``None`` in normal
#: operation (FIFO among same-``(time, priority)`` events).  The schedule-
#: perturbation sanitizer (``repro.analysis.perturb``) installs a seeded
#: pseudo-random ranker here to prove results do not depend on the incidental
#: insertion order of same-timestamp events.
_TIE_RANKER: Optional[Callable[[int], int]] = None


@contextmanager
def tie_ranker(ranker: Optional[Callable[[int], int]]) -> Any:
    """Install ``ranker`` as the same-timestamp tie-breaker for the block.

    Environments created *and* driven inside the block order equal
    ``(time, priority)`` events by ``ranker(seq)`` instead of the FIFO
    sequence number.  Always restores the previous ranker, even when the
    perturbed experiment raises.
    """
    global _TIE_RANKER
    previous = _TIE_RANKER
    _TIE_RANKER = ranker
    try:
        yield ranker
    finally:
        _TIE_RANKER = previous


def install_trace_sink(sink: Callable[[int, int, int, "Event | Call"], None]) -> None:
    """Register ``sink`` to observe every scheduled event as it is processed."""
    _TRACE_SINKS.append(sink)


def remove_trace_sink(sink: Callable[[int, int, int, "Event | Call"], None]) -> None:
    """Unregister a sink previously installed (no-op if absent)."""
    try:
        _TRACE_SINKS.remove(sink)
    except ValueError:
        pass


class EventTraceHasher:
    """Order-sensitive digest of an event schedule; a trace sink.

    Every processed queue entry folds ``time|priority|seq|kind|name`` into
    a running blake2b digest.  Events are identified by type name and
    process name, never by ``repr`` (which contains ``id()``).  Two runs of
    one seeded experiment must give the same digest: that is the
    determinism contract ``repro sanitize`` enforces.
    """

    def __init__(self) -> None:
        self._hash = hashlib.blake2b(digest_size=16)
        #: number of events folded in (a cheap first-difference diagnostic)
        self.events = 0

    def __call__(self, time: int, priority: int, seq: int, event: object) -> None:
        name = getattr(event, "name", "") or ""
        line = f"{time!r}|{priority}|{seq}|{type(event).__name__}|{name}\n"
        self._hash.update(line.encode("utf-8"))
        self.events += 1

    def update_text(self, text: str) -> None:
        """Fold extra material (e.g. the rendered experiment result) into
        the digest so value-level divergence is caught too."""
        self._hash.update(text.encode("utf-8"))

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


@contextmanager
def trace_capture(hasher: Optional[Any] = None) -> Any:
    """Observe every processed event through an ``EventTraceHasher``.

    Installs the hasher as a trace sink for the duration of the block and
    always removes it, even when the traced experiment raises.  This is the
    one entry point shared by the determinism sanitizer and the parallel
    experiment runner, so both derive their trace hashes from the same
    event stream::

        with trace_capture() as hasher:
            result = run_experiment("fig3", fast=True)
        digest = hasher.hexdigest()
    """
    if hasher is None:
        hasher = EventTraceHasher()
    install_trace_sink(hasher)
    try:
        yield hasher
    finally:
        remove_trace_sink(hasher)


class Event:
    """A happening the simulation can wait on.

    An event goes through three states: *pending* (created), *triggered*
    (given a value and scheduled), *processed* (callbacks have run).
    Processes wait on an event by ``yield``-ing it.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        #: callables invoked with this event when it is processed; ``None``
        #: once processed.
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._defused: bool = False

    # -- state ----------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if not self.triggered:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering -----------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._value = value
        self.env._schedule(self, NORMAL, 0.0)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        self._ok = False
        self._value = exception
        self.env._schedule(self, NORMAL, 0.0)
        return self

    def __repr__(self) -> str:
        state = "processed" if self.processed else ("triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers ``delay`` units of virtual time after creation."""

    __slots__ = ()

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay}")
        # Event.__init__ inlined: every process sleep allocates one, and
        # the super() dispatch plus the double ``_value`` write are
        # measurable there.
        self.env = env
        self.callbacks = []
        self._ok = True
        self._defused = False
        self._value = value
        env._schedule(self, NORMAL, delay)


class Initialize(Event):
    """Immediately-scheduled event used to start a new process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        super().__init__(env)
        self._value = None
        self.callbacks.append(process._resume)
        env._schedule(self, URGENT, 0.0)


class Process(Event):
    """A running simulation coroutine.

    A process is itself an event that triggers when the coroutine returns
    (successfully, with the generator's return value) or raises (failed,
    with the exception).  Processes can therefore wait on each other simply
    by yielding the other process.
    """

    __slots__ = ("_generator", "name")

    def __init__(self, env: "Environment", generator: Generator, name: str = ""):
        if not hasattr(generator, "throw"):
            raise SimulationError(f"process target must be a generator, got {generator!r}")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        return self._value is PENDING

    # -- coroutine driving ------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Resume the generator with the value (or exception) of ``event``."""
        env = self.env
        try:
            if event._ok:
                next_event = self._generator.send(event._value)
            else:
                event._defused = True
                next_event = self._generator.throw(event._value)
        except StopIteration as stop:
            self._value = stop.value
            env._schedule(self, NORMAL, 0.0)
            return
        except BaseException as exc:
            self._ok = False
            self._value = exc
            env._schedule(self, NORMAL, 0.0)
            return

        if not isinstance(next_event, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {next_event!r}; processes must yield Events"
            )
        if next_event.env is not env:
            raise SimulationError("cannot wait on an event from another Environment")
        if next_event.callbacks is None:
            # Already processed: resume immediately (urgently) with its value.
            proxy = Event(env)
            proxy._ok = next_event._ok
            proxy._value = next_event._value
            if not next_event._ok:
                next_event._defused = True
                proxy._defused = True
            proxy.callbacks.append(self._resume)
            env._schedule(proxy, URGENT, 0.0)
        else:
            next_event.callbacks.append(self._resume)


class Call:
    """A callback queued by :meth:`Environment.call_at`.

    Not an :class:`Event`: nothing can wait on it, and :meth:`Environment.step`
    runs ``fn()`` instead of callbacks.  Trace sinks see it like any other
    queue entry.
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[], Any]):
        self.fn = fn


class Environment:
    """Holds the clock and the event queue, and drives the simulation.

    The clock is an integer nanosecond tick count (``_now``); the public
    :attr:`now` / :meth:`peek` express it in float seconds (int/int true
    division — correctly rounded, and exact whenever the instant is
    representable, e.g. every whole microsecond below ~104 days).
    """

    def __init__(self, initial_time: float = 0.0):
        self._now = round(float(initial_time) * TICKS_PER_SECOND)
        self._now_s = self._now / TICKS_PER_SECOND
        self._queue: list[tuple[int, int, int, "Event | Call"]] = []
        self._seq = 0

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now_s

    @property
    def now_ticks(self) -> int:
        """Current virtual time in integer engine ticks (nanoseconds)."""
        return self._now

    # -- factories ---------------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def timeout_at(self, tick: int, value: Any = None) -> Event:
        """An event that fires at the absolute engine tick ``tick``.

        The tick-exact counterpart of :meth:`timeout` for callers that keep
        their schedule in integer ticks: the TCP window driver sleeps to a
        round ``k`` RTT ticks ahead, and ``now + delay_to_ticks(k * rtt)``
        need not equal ``now + k * delay_to_ticks(rtt)``.
        """
        if tick < self._now:
            raise SimulationError(
                f"cannot schedule a timeout at tick {tick} (now={self._now}); "
                "events cannot fire in the past"
            )
        event = Event(self)
        event._value = value
        self._seq += 1
        seq = self._seq if _TIE_RANKER is None else _TIE_RANKER(self._seq)
        heapq.heappush(self._queue, (tick, NORMAL, seq, event))
        return event

    def call_at(self, tick: int, fn: Callable[[], Any]) -> None:
        """Run ``fn()`` at the absolute engine tick ``tick``.

        Ordered like a :class:`Timeout` firing at that tick (``NORMAL``
        priority, then sequence number or the installed tie ranker), but
        without an event: an exception raised by ``fn`` propagates out of
        :meth:`step`.
        """
        if tick < self._now:
            raise SimulationError(
                f"cannot call {fn!r} at tick {tick} (now={self._now}); "
                "events cannot fire in the past"
            )
        self._seq += 1
        seq = self._seq if _TIE_RANKER is None else _TIE_RANKER(self._seq)
        heapq.heappush(self._queue, (tick, NORMAL, seq, Call(fn)))

    def process(self, generator: Generator, name: str = "") -> Process:
        """Register ``generator`` as a new process starting now."""
        return Process(self, generator, name=name)

    # -- scheduling ----------------------------------------------------------------
    def _schedule(self, event: Event, priority: int, delay: float) -> None:
        if delay == 0.0:
            tick = self._now
        elif delay > 0.0:
            # Guarded ceil: never early, at least one tick, exact for
            # tick-representable delays (see units.delay_to_ticks).
            tick = self._now + delay_to_ticks(delay)
        else:
            # A negative delay would fire the event in the past: heappop
            # would hand out a time below ``now``, silently rewinding the
            # clock for every later observer.  Timeout already rejects
            # negative delays at its own layer; this guards every other
            # scheduling path (succeed/fail forward 0.0 here).
            raise ValueError(
                f"cannot schedule {event!r} with negative delay {delay!r} "
                f"(now={self._now_s!r}); events cannot fire in the past"
            )
        self._seq += 1
        seq = self._seq if _TIE_RANKER is None else _TIE_RANKER(self._seq)
        heapq.heappush(self._queue, (tick, priority, seq, event))

    def peek(self) -> float:
        """Time of the next scheduled event in seconds (``inf`` if none)."""
        return self._queue[0][0] / TICKS_PER_SECOND if self._queue else float("inf")

    def step(self) -> None:
        """Process the next scheduled event."""
        try:
            tick, priority, seq, event = heapq.heappop(self._queue)
        except IndexError:
            raise SimulationError("step() on an empty schedule") from None
        if tick != self._now:  # repro: noqa=UNIT003 -- integer ticks compare exactly
            self._now = tick
            self._now_s = tick / TICKS_PER_SECOND
        if _TRACE_SINKS:
            for sink in tuple(_TRACE_SINKS):
                sink(tick, priority, seq, event)
        sess = _obs.ACTIVE
        if sess is not None and sess.spans:
            # Sparse queue-depth sampling; records only, never schedules,
            # so telemetry cannot perturb the event stream it observes.
            sess.sim_step(self._now_s, len(self._queue))
        if type(event) is Call:
            event.fn()
            return
        callbacks, event.callbacks = event.callbacks, None
        if callbacks is None:
            raise SimulationError(f"{event!r} processed twice")
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            # Nobody waited on this failure: surface it loudly.
            raise event._value

    def run(self, until: "float | Event | None" = None) -> Any:
        """Run until the queue drains, a time is reached, or an event fires.

        Returns the value of ``until`` when it is an event; ``None``
        otherwise.
        """
        if isinstance(until, Event):
            stop = until
            if stop.callbacks is None:  # already processed
                if not stop._ok:
                    stop._defused = True
                    raise stop._value
                return stop._value
            done = []
            stop.callbacks.append(lambda ev: done.append(ev))
            while not done:
                if not self._queue:
                    raise SimulationError(
                        f"simulation deadlock: queue empty but {stop!r} never triggered"
                    )
                self.step()
            if not stop._ok:
                stop._defused = True
                raise stop._value
            return stop._value

        if until is None:
            while self._queue:
                self.step()
            return None

        # Guarded floor: events strictly beyond the horizon must not run,
        # but a tick-representable horizon includes its own instant exactly.
        horizon = horizon_to_ticks(float(until))
        if horizon < self._now:
            raise SimulationError(
                f"run(until={until}) is in the past (now={self._now_s})"
            )
        queue = self._queue
        while queue and queue[0][0] <= horizon:
            self.step()
        if horizon > self._now:
            self._now = horizon
            self._now_s = horizon / TICKS_PER_SECOND
        return None
