"""Max-min invariant oracle for the fluid solver.

:func:`maxmin_checked` wraps ``FluidNetwork._solve``, ``FluidNetwork._apply``
(which writes the rates of every solve and of every solo flow) and
``FluidNetwork._depart`` for every network used inside its ``with`` block.
After each solve it checks the components just solved, and after each
solo rate the solo flow alone:

* the rates crossing a pipe sum to at most its capacity;
* no flow's rate exceeds its cap;
* the allocation is max-min: every flow is at its cap, or crosses a
  saturated pipe on which its rate is the largest.

At every completion it checks that the bits the flow sent, integrated over
the rates it was given, equal its size.  The tolerance is 1e-9
relative (the solver keeps a rate whose change is within 1e-12), plus, at
completion, one bit of residue and two engine ticks of the flow's rate
(completions round up to the next tick).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

from repro.net.fluid import FluidNetwork

TOL = 1e-9
#: one engine tick, in seconds
TICK = 1e-9


@dataclass
class Tally:
    """What a :func:`maxmin_checked` block checked, and the networks it saw."""

    completions: int = 0
    networks: list = field(default_factory=list)


def check_maxmin(flows) -> None:
    """Assert the three allocation invariants over ``flows``, a whole
    component's live flows."""
    load: dict = {}
    top: dict = {}
    for flow in flows:
        rate = flow.rate_bps
        assert rate <= flow.rate_cap_bps * (1 + TOL), f"{flow} exceeds its cap"
        for pipe in flow.pipes:
            load[pipe] = load.get(pipe, 0.0) + rate
            if rate > top.get(pipe, -1.0):
                top[pipe] = rate
    saturated = set()
    for pipe, used in load.items():
        assert used <= pipe.capacity_bps * (1 + TOL), f"{pipe} carries {used} bps"
        if used >= pipe.capacity_bps * (1 - TOL):
            saturated.add(pipe)
    for flow in flows:
        rate = flow.rate_bps
        if rate >= flow.rate_cap_bps * (1 - TOL):
            continue
        assert any(
            pipe in saturated and rate >= top[pipe] * (1 - TOL) for pipe in flow.pipes
        ), f"{flow} is below its cap and not bottlenecked on a saturated pipe"


@contextlib.contextmanager
def maxmin_checked():
    """Check every solve and completion in the block; yields a :class:`Tally`."""
    solve, apply, depart = FluidNetwork._solve, FluidNetwork._apply, FluidNetwork._depart
    tally = Tally()
    #: flow -> [size in bits, bits sent until ``since``, rate, since]
    ledger: dict = {}

    def checked_solve(self, plans):
        solve(self, plans)
        for plan, _level in plans:
            check_maxmin(plan.flow_index)

    def checked_apply(self, moves):
        moves = list(moves)
        apply(self, moves)
        if self not in tally.networks:
            tally.networks.append(self)
        now = self.env.now
        for flow, _rate in moves:
            if self._solo.get(flow.pipes[0]) is flow:
                check_maxmin([flow])
            entry = ledger.get(flow)
            if entry is None:
                # first seen in its start's rate: nothing sent yet
                ledger[flow] = [flow.remaining_bits, 0.0, flow.rate_bps, now]
            elif entry[2] != flow.rate_bps:
                entry[1] += entry[2] * (now - entry[3])
                entry[2], entry[3] = flow.rate_bps, now

    def checked_depart(self, flow):
        size, sent, rate, since = ledger.pop(flow)
        if flow.done.triggered and flow.done.ok:  # completed, not aborted
            sent += rate * (self.env.now - since)
            assert abs(sent - size) <= TOL * size + 1.0 + 2 * TICK * rate, (
                f"{flow} sent {sent} of {size} bits"
            )
            tally.completions += 1
        depart(self, flow)

    FluidNetwork._solve, FluidNetwork._apply, FluidNetwork._depart = (
        checked_solve, checked_apply, checked_depart
    )
    try:
        yield tally
    finally:
        FluidNetwork._solve, FluidNetwork._apply, FluidNetwork._depart = solve, apply, depart
