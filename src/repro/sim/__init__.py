"""A small, deterministic discrete-event simulation engine.

The engine follows the classic generator-coroutine design (as popularised by
SimPy, reimplemented here from scratch): simulation *processes* are Python
generators that ``yield`` :class:`~repro.sim.core.Event` objects and are
resumed when those events trigger.  Virtual time only advances between
events, so arbitrarily fine-grained timing (microsecond MPI overheads next to
multi-second NAS phases) costs nothing.

Public surface:

- :class:`Environment` — event queue and clock; ``env.process(gen)``,
  ``env.timeout(delay)``, ``env.call_at(tick, fn)``, ``env.run(until=...)``.
- :class:`Process` — a running coroutine; also an event (its termination).
- :class:`Event`, :class:`Timeout`, :class:`AllOf`, :func:`any_of`.
- :class:`Resource` — a FIFO lock whose requests are events.
- :class:`RngRegistry` — named deterministic random streams.
"""

from repro.sim.core import Environment, Event, Process, Timeout
from repro.sim.queues import Resource
from repro.sim.rng import RngRegistry
from repro.sim.sync import AllOf, any_of

__all__ = [
    "AllOf",
    "Environment",
    "Event",
    "Process",
    "Resource",
    "RngRegistry",
    "Timeout",
    "any_of",
]
