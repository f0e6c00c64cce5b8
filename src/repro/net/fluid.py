"""Flow-level ("fluid") bandwidth sharing.

A :class:`Pipe` is a capacity constraint (a NIC direction, a site uplink...).
A :class:`Flow` is a byte transfer across an ordered set of distinct pipes
with an optional sender rate cap (used by TCP to impose its congestion
window: ``cap = cwnd / RTT``).

Rates are allocated by **progressive filling** (max-min fairness with per-flow
caps): all unfrozen flows grow at the same rate until a pipe saturates (its
flows freeze) or a flow hits its cap (it freezes); repeat.  This is the
standard fluid model of long-lived TCP flows sharing a network.

Incremental allocation
----------------------
The max-min allocation decomposes over connected components of the
shares-a-pipe relation, so it can be repaired locally instead of recomputed
globally.  Each pipe that carries live flows maps to the plan of exactly
their component, or to a solo flow (below); a pipe keeps no flow list of
its own, so these two maps and the plans' indices are the only record of
who crosses what.  An arriving flow extends the one plan its route
touches, or builds a new plan (no plan touched) or a merged one (several
plans or solo flows); a departing flow is dropped from its plan, which
splits when the flow was the only link between what is left (a walk over
the plan's own indices decides).  Every mutation queues only the
component(s) it touched for the tick's solve (see "One solve per tick"):
flows outside share no constraint with it and provably keep their rates.
A flow's bytes are settled only when its rate changes, so a solve writes
nothing to the flows it leaves alone.

Solo flows
----------
A flow whose route finds every pipe idle when it starts gets no plan:
each of its pipes maps to the flow itself, and its rate is ``min(rate cap,
smallest pipe capacity)``, bit for bit what progressive filling computes
(``capacity / 1`` is exact).  A cap push or a capacity change re-rates it
directly, a departure only unmaps its pipes, and it joins a plan the moment
an arrival touches one of its pipes.  Solo rates are not component solves:
they bypass ``solve_rounds``.  A plan that shrinks to one live flow stays a
plan and fills like any other, to the same rate.

Resumed fills
-------------
A departure or a cap push cannot move a rate below its *level*: the
departing flow's rate, or ``min(old rate, new cap)``.  Up to that level
the mutated flow is active on every pipe it crosses, with or without the
mutation, so every freeze below it happens alike.  The fill therefore
freezes the flows below the level at their current rates (their rates
come off their pipes' residuals) and solves only the rest, starting its
walk of the plan's sorted cap list at the level.  Arrivals and capacity
changes fill from zero.

One solve per tick
------------------
No mutation solves on the spot.  An arrival that extends or merges plans,
a cap push, a departure and a capacity change each record ``plan ->
level`` in one pending map; levels combine by ``min``, arrivals, merges
and capacity changes give 0, a plan merged away drops its entry and the
parts of a split inherit it.  The tick's first mutation queues one engine
callback at the current tick, which solves everything pending at once; a
completion callback departs every flow due at its tick and solves the
same map at its end.  Between a mutation and that solve a plan's rates
are stale: :meth:`FluidNetwork.settled` hands a reader the event fired
after the solve (the TCP window driver waits on it).

A level taken from a rate that has not been re-solved is still a safe
lower bound.  A resumed fill leaves every flow at or above ``min(its old
rate, the level)``, and exactly where it was below the level; so the true
level of a later mutation is at least ``min`` of its stale level and the
earlier levels, and the ``min`` over pending levels freezes only flows
that keep their rates through every pending mutation.

Completion timer
----------------
Each flow's exact completion tick is kept in a network-local heap of
``(tick, arm order, flow)``; the network queues one engine callback
(:meth:`~repro.sim.core.Environment.call_at`) at the heap minimum and,
when it fires, finishes every flow due at that tick in arm order.  Only
flows whose rate materially changed are re-armed; their older entries go
stale (the flow's ``_arm`` no longer names them) and are dropped lazily,
and the heap is rebuilt once stale entries outnumber live flows.

The differential test in ``tests/test_net_fluid.py`` checks this solver
against a whole-network progressive-filling oracle after each tick's
solve in randomized workloads.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, insort
from itertools import chain, starmap
from typing import Callable, Collection, Iterable, Optional

from repro.errors import NetworkConfigError
from repro.sim.core import Environment, Event
from repro.units import Rate, delay_to_ticks

_EPS = 1e-12
#: Residues below one bit are float noise from ``(t + eta) - t`` round-trips,
#: not real payload; clamping them avoids infinite zero-delay reschedules.
_RESIDUE_BITS = 1.0
#: Never schedule a completion closer than this (guards clock stagnation).
_MIN_ETA = 1e-12
#: A resumed fill freezes only flows below ``level * (1 - margin)``: rates may
#: be stale by ``_EPS``, and a flow tied with the mutated one must stay free.
_LEVEL_MARGIN = 1e-9


class Pipe:
    """A single capacity constraint, in bits per second."""

    __slots__ = ("name", "capacity_bps")

    def __init__(self, name: str, capacity_bps: "Rate | float"):
        if capacity_bps <= 0:
            raise NetworkConfigError(f"pipe {name!r}: capacity must be positive")
        self.name = name
        self.capacity_bps = float(capacity_bps)

    def __repr__(self) -> str:
        return f"Pipe({self.name!r}, {self.capacity_bps / 1e9:.3g} Gbps)"


class Flow:
    """An in-flight fluid transfer."""

    __slots__ = (
        "name",
        "uid",
        "pipes",
        "remaining_bits",
        "rate_cap_bps",
        "rate_bps",
        "done",
        "on_rate_change",
        "_last_update",
        "_arm",
    )

    def __init__(
        self,
        name: str,
        pipes: tuple[Pipe, ...],
        nbytes: float,
        done: Event,
        rate_cap_bps: float = math.inf,
        uid: int = 0,
    ):
        self.name = name
        #: creation order within the owning FluidNetwork; the deterministic
        #: iteration key (sets of flows order by id(), which is not stable
        #: run-to-run — see DET006 in repro.analysis)
        self.uid = uid
        self.pipes = pipes
        #: bits still to send as of ``_last_update`` (settled only when the
        #: rate changes, and at completion or abort)
        self.remaining_bits = float(nbytes) * 8.0
        self.rate_cap_bps = float(rate_cap_bps)
        self.rate_bps = 0.0
        self.done = done
        #: called with the flow whenever a solve assigns it a new rate (the
        #: TCP window driver sleeps across rounds and re-arms on it)
        self.on_rate_change: Optional[Callable[["Flow"], None]] = None
        self._last_update = 0.0
        #: arm order of the flow's live completion-heap entry (0: none)
        self._arm = 0

    def finish_estimate(self) -> float:
        """When the flow finishes if its rate never changes again (seconds;
        ``inf`` while it is starved)."""
        if self.rate_bps <= 0.0:
            return math.inf
        return self._last_update + self.remaining_bits / self.rate_bps

    def __repr__(self) -> str:
        return (
            f"Flow({self.name!r}, remaining={self.remaining_bits / 8:.0f}B, "
            f"rate={self.rate_bps / 1e6:.1f}Mbps)"
        )


class _ComponentPlan:
    """Indexed view of one connected component of live flows.

    Capacities may change freely between solves (the solve re-reads them);
    a rate cap changes through :meth:`FluidNetwork.set_rate_cap`, which
    keeps ``caps`` sorted.  An arriving flow whose route touches only this
    component is appended in place (its uid is the largest yet, so
    ``flows`` stays uid sorted); a departing flow is dead-marked and
    skipped.  A merge or a split builds new plans instead.  ``flows`` is
    uid sorted, ``pipes`` in first-touch order over that flow order —
    both deterministic.  ``pipes`` may keep pipes that no longer carry a
    live flow; their live count is 0.
    """

    __slots__ = (
        "flows",
        "pipes",
        "pipe_index",
        "flow_index",
        "flow_pipes",
        "members",
        "live_count",
        "dead",
        "caps",
    )

    def __init__(self, scope: Iterable[Flow]):
        self.flows: list[Flow] = []
        self.pipes: list[Pipe] = []
        #: pipe -> index into ``pipes``
        self.pipe_index: dict[Pipe, int] = {}
        #: flow -> index into ``flows``, live flows only, in uid order
        self.flow_index: dict[Flow, int] = {}
        #: per flow index, the pipe indices on its route
        self.flow_pipes: list[list[int]] = []
        #: per pipe index, the flow indices crossing it (may include dead)
        self.members: list[list[int]] = []
        #: per pipe index, the number of *live* flows crossing it; patched
        #: on every extend/drop so each solve starts from a plain copy
        self.live_count: list[int] = []
        self.dead = bytearray()
        #: sorted ``(cap, flow index)`` of the live capped flows, patched in
        #: place on every extend, drop and cap move
        self.caps: list[tuple[float, int]] = []
        flows = sorted(scope, key=lambda f: f.uid)
        for flow in flows:
            self.extend(flow)

    def extend(self, flow: Flow) -> None:
        """Append ``flow`` (and any pipe new to the plan) in place."""
        pipe_index, pipes, members, live_count = (
            self.pipe_index, self.pipes, self.members, self.live_count
        )
        fidx = len(self.flows)
        self.flows.append(flow)
        self.dead.append(0)
        self.flow_index[flow] = fidx
        indices: list[int] = []
        for pipe in flow.pipes:
            pidx = pipe_index.get(pipe)
            if pidx is None:
                pidx = pipe_index[pipe] = len(pipes)
                pipes.append(pipe)
                members.append([fidx])
                live_count.append(1)
            else:
                members[pidx].append(fidx)
                live_count[pidx] += 1
            indices.append(pidx)
        self.flow_pipes.append(indices)
        self.move_cap(fidx, math.inf, flow.rate_cap_bps)

    def drop(self, flow: Flow) -> None:
        """Dead-mark a departing flow."""
        fidx = self.flow_index.pop(flow)
        self.dead[fidx] = 1
        for pidx in self.flow_pipes[fidx]:
            self.live_count[pidx] -= 1
        self.move_cap(fidx, flow.rate_cap_bps, math.inf)

    def move_cap(self, fidx: int, old: float, new: float) -> None:
        """Move flow ``fidx``'s entry in ``caps`` from cap ``old`` to
        ``new`` (an infinite cap has no entry)."""
        caps = self.caps
        if old != math.inf:
            del caps[bisect_left(caps, (old, fidx))]
        if new != math.inf:
            insort(caps, (new, fidx))

    def compact(self) -> None:
        """Rebuild the index arrays without the dead slots.

        Filtering preserves the uid order of the surviving flows.  Called
        by the owner once dead entries outnumber live ones, so the per
        solve scan stays proportional to the live population.
        """
        live = [fidx for fidx in range(len(self.flows)) if not self.dead[fidx]]
        flows = [self.flows[fidx] for fidx in live]
        old_flow_pipes = self.flow_pipes
        flow_pipes = [old_flow_pipes[fidx] for fidx in live]
        members: list[list[int]] = [[] for _ in self.pipes]
        for new_fidx, indices in enumerate(flow_pipes):
            for pidx in indices:
                members[pidx].append(new_fidx)
        self.flows = flows
        self.flow_pipes = flow_pipes
        self.members = members
        self.live_count = [len(m) for m in members]
        self.flow_index = {flow: fidx for fidx, flow in enumerate(flows)}
        self.dead = bytearray(len(flows))
        self.caps = sorted(
            (cap, fidx) for fidx, flow in enumerate(flows) if (cap := flow.rate_cap_bps) != math.inf
        )


def _lone_rate(flow: Flow) -> float:
    """The rate of a flow alone on its pipes: ``min(rate cap, smallest
    capacity)``, bit for bit what progressive filling computes, since
    ``capacity / 1`` is exact and a cap equal to the capacity yields the
    same value either way."""
    rate = flow.rate_cap_bps
    for pipe in flow.pipes:
        capacity = pipe.capacity_bps
        if capacity < rate:
            rate = capacity
    return rate


class FluidNetwork:
    """Tracks active flows and allocates max-min fair rates."""

    def __init__(self, env: Environment):
        self.env = env
        self.flows: set[Flow] = set()
        #: number of mutations that may move a rate (starts, cap and
        #: capacity changes, completions, aborts), exposed for performance
        #: tests
        self.recomputations = 0
        #: number of component solves actually run across all recomputations
        self.solve_rounds = 0
        #: flows solved by progressive filling, summed over fills (flows
        #: frozen below a resumed fill's level are not counted)
        self.fill_visits = 0
        self._flow_counter = 0
        #: each pipe carrying live flows -> the plan of their component
        self._plans: dict[Pipe, _ComponentPlan] = {}
        #: each pipe of a solo flow (see the module docstring) -> that flow
        self._solo: dict[Pipe, Flow] = {}
        #: completion heap of ``(tick, arm order, flow)``, stale entries
        #: included (see the module docstring)
        self._due: list[tuple[int, int, Flow]] = []
        self._arm_order = 0
        #: ticks at which a ``_on_timer`` callback is queued in the engine
        self._timer_ticks: set[int] = set()
        #: set while ``_on_timer`` finishes flows: it solves and re-arms at the end
        self._firing = False
        #: plans the tick's mutations left to solve -> their fill level
        self._pending: dict[_ComponentPlan, float] = {}
        #: whether an ``_on_flush`` callback is queued at the current tick
        self._flush_queued = False
        #: fired after the pending solve (see :meth:`settled`); ``None`` until asked
        self._settled: Optional[Event] = None

    # -- public API -------------------------------------------------------------
    def start_flow(
        self,
        name: str,
        pipes: Iterable[Pipe],
        nbytes: float,
        rate_cap_bps: "Rate | float" = math.inf,
    ) -> Flow:
        """Begin transferring ``nbytes`` across ``pipes``.

        Returns the :class:`Flow`; its ``done`` event triggers when the last
        byte leaves the last pipe.  ``rate_cap_bps`` bounds the flow's rate
        (TCP window cap); it may be changed later with :meth:`set_rate_cap`.
        A flow alone on its pipes gets its rate at once; one that shares a
        pipe gets it from the tick's solve (see :meth:`settled`).
        """
        route = tuple(pipes)
        if not route:
            raise NetworkConfigError(f"flow {name!r}: needs at least one pipe")
        if nbytes < 0:
            raise NetworkConfigError(f"flow {name!r}: negative size")
        if rate_cap_bps <= 0:
            raise NetworkConfigError(f"flow {name!r}: rate cap must be positive")
        if len(set(route)) != len(route):
            raise NetworkConfigError(f"flow {name!r}: route lists a pipe twice")
        self._flow_counter += 1
        flow = Flow(
            name, route, nbytes, self.env.event(), rate_cap_bps, uid=self._flow_counter
        )
        flow._last_update = self.env.now
        if nbytes == 0:
            flow.done.succeed()
            return flow
        self.flows.add(flow)
        plans, solo = self._plans, self._solo
        alone = True
        joined: list[_ComponentPlan] = []
        partners: list[Flow] = []
        for pipe in route:
            plan = plans.get(pipe)
            if plan is not None:
                alone = False
                if plan not in joined:
                    joined.append(plan)
            elif (partner := solo.get(pipe)) is not None:
                # it leaves solo to join the plan
                alone = False
                for other in partner.pipes:
                    del solo[other]
                partners.append(partner)
        self.recomputations += 1
        if alone:
            for pipe in route:
                solo[pipe] = flow
            self._apply(((flow, _lone_rate(flow)),))
            return flow
        if len(joined) == 1 and not partners:
            plan = joined[0]
            plan.extend(flow)
            covered: Iterable[Pipe] = route
        else:
            # A new component, or the flow bridges several into one.
            plan = _ComponentPlan(
                [flow, *partners, *(f for p in joined for f in p.flow_index)]
            )
            covered = plan.pipe_index
            for merged in joined:
                self._pending.pop(merged, None)
        for pipe in covered:
            plans[pipe] = plan
        self._defer(plan, 0.0)
        return flow

    def set_rate_cap(self, flow: Flow, rate_cap_bps: float) -> None:
        """Change a flow's rate cap (e.g. the congestion window grew)."""
        if rate_cap_bps <= 0:
            raise NetworkConfigError(f"flow {flow.name!r}: rate cap must be positive")
        if flow not in self.flows:
            return  # already finished; harmless race with the cap updater
        old_cap = flow.rate_cap_bps
        if abs(rate_cap_bps - old_cap) < _EPS:
            return
        flow.rate_cap_bps = rate_cap_bps = float(rate_cap_bps)
        plan = self._plans.get(flow.pipes[0])  # None: a solo flow
        if plan is not None:
            plan.move_cap(plan.flow_index[flow], old_cap, rate_cap_bps)
        # A cap move cannot change any allocation when the flow was not
        # cap-limited before (its pipes limit it) and the new cap still
        # sits above its current rate.  Skipping the recompute here is what
        # keeps thousand-flow phases (ray2mesh's merge) tractable.
        rate = flow.rate_bps
        was_cap_limited = rate >= old_cap * (1.0 - 1e-9)
        if not was_cap_limited and rate_cap_bps >= rate - _EPS:
            return
        self.recomputations += 1
        if plan is None:
            self._apply(((flow, _lone_rate(flow)),))
        else:
            self._defer(plan, min(rate, rate_cap_bps))

    def set_pipe_capacity(self, pipe: Pipe, capacity_bps: "Rate | float") -> None:
        """Change a pipe's capacity mid-simulation and re-allocate every
        affected flow.  No experiment calls it; the solver and TCP
        window-driver oracles drive it as their capacity-change stimulus."""
        if capacity_bps <= 0:
            raise NetworkConfigError(
                f"pipe {pipe.name!r}: capacity must be positive"
            )
        if abs(float(capacity_bps) - pipe.capacity_bps) < _EPS:
            return
        pipe.capacity_bps = float(capacity_bps)
        self.recomputations += 1
        plan = self._plans.get(pipe)
        if plan is not None:
            self._defer(plan, 0.0)
        elif (flow := self._solo.get(pipe)) is not None:
            self._apply(((flow, _lone_rate(flow)),))

    def abort_flow(self, flow: Flow, exc: BaseException) -> None:
        """Fail a flow's completion event and release its capacity."""
        if flow not in self.flows:
            return
        self._settle(flow)
        flow.done.fail(exc)
        self._depart(flow)

    def settled(self, flow: Flow) -> Optional[Event]:
        """``None`` when ``flow``'s rate is this tick's solved rate, else
        the event fired once the pending solve of its component has run."""
        pending = self._pending
        if not pending or flow not in self.flows:
            return None
        if self._plans.get(flow.pipes[0]) not in pending:
            return None
        if self._settled is None:
            self._settled = self.env.event()
        return self._settled

    # -- internals ------------------------------------------------------------------
    def _settle(self, flow: Flow) -> None:
        """Account bytes sent at the current rate since the last update."""
        elapsed = self.env.now - flow._last_update
        if elapsed > 0:
            flow.remaining_bits -= flow.rate_bps * elapsed
            if flow.remaining_bits < _RESIDUE_BITS:
                flow.remaining_bits = 0.0
        flow._last_update = self.env.now

    def _depart(self, flow: Flow) -> None:
        """Remove a finished or aborted flow and queue what it leaves.

        Pipes left without a live flow leave the map.  The flows still on
        its other pipes ("anchors") stay one component unless the flow was
        their only link: with two or more anchors, a walk from the first
        checks that it reaches the rest, and the plan splits if not.  What
        is left is queued to resume filling at the flow's rate.  A solo
        flow only unmaps its pipes.
        """
        self.recomputations += 1
        self.flows.discard(flow)
        flow._arm = 0
        plans = self._plans
        plan = plans.get(flow.pipes[0])
        if plan is None:
            for pipe in flow.pipes:
                del self._solo[pipe]
            self._arm_timer()
            return
        plan.drop(flow)
        anchors: list[int] = []
        live_count = plan.live_count
        for pipe in flow.pipes:
            pidx = plan.pipe_index[pipe]
            if live_count[pidx]:
                anchors.append(pidx)
            else:
                del plans[pipe]
        level = self._pending.pop(plan, math.inf)
        if flow.rate_bps < level:
            level = flow.rate_bps
        if len(anchors) > 1:
            for part in self._split(plan, anchors):
                self._defer(part, level)
        elif anchors:
            self._defer(plan, level)
        else:
            self._arm_timer()  # the flow was alone in its plan

    def _split(self, plan: _ComponentPlan, anchors: "list[int]") -> "list[_ComponentPlan]":
        """``[plan]`` if its live flows still connect every anchor (a pipe
        index), else the new plans of its components (each holds an anchor:
        whatever the departed flow linked was linked through one of its
        pipes).  The walk runs over the plan's indices, skipping dead slots."""
        members, flow_pipes, dead = plan.members, plan.flow_pipes, plan.dead
        seen = {anchors[0]}
        stack = [anchors[0]]
        unreached = len(anchors) - 1
        scopes: list[dict[int, None]] = []
        scope: dict[int, None] = {}
        while True:
            while stack:
                for fidx in members[stack.pop()]:
                    if dead[fidx] or fidx in scope:
                        continue
                    scope[fidx] = None
                    for q in flow_pipes[fidx]:
                        if q in seen:
                            continue
                        seen.add(q)
                        stack.append(q)
                        if q in anchors:
                            unreached -= 1
                            if not unreached and not scopes:
                                return [plan]
            scopes.append(scope)
            rest = [pidx for pidx in anchors if pidx not in seen]
            if not rest:
                break
            seen.add(rest[0])
            stack = [rest[0]]
            scope = {}
        flows = plan.flows
        parts = [_ComponentPlan(map(flows.__getitem__, scope)) for scope in scopes]
        for part in parts:
            for pipe in part.pipe_index:
                self._plans[pipe] = part
        return parts

    def _defer(self, plan: _ComponentPlan, level: float) -> None:
        """Queue ``plan`` for the tick's solve, resumed at no more than
        ``level``; the tick's first mutation queues :meth:`_on_flush`."""
        pending = self._pending
        if level < pending.get(plan, math.inf):
            pending[plan] = level
        if not self._firing and not self._flush_queued:
            self._flush_queued = True
            self.env.call_at(self.env.now_ticks, self._on_flush)

    def _on_flush(self) -> None:
        """The engine callback queued by a tick's first mutation."""
        self._flush_queued = False
        self._flush()

    def _flush(self) -> None:
        """Solve every pending plan at once, re-arm, and fire the event
        :meth:`settled` handed out."""
        if self._pending:
            work, self._pending = self._pending, {}
            self._solve(work.items())
        else:
            self._arm_timer()
        settled, self._settled = self._settled, None
        if settled is not None:
            settled.succeed()

    def _solve(self, plans: "Collection[tuple[_ComponentPlan, float]]") -> None:
        """Re-solve whole components and re-arm the flows whose rate moved.

        ``plans`` pairs each component with the level its fill resumes at
        (see :meth:`_fill`).  Every flow sharing a pipe with a component is
        itself in it, so pipe capacities need no adjustment for external
        traffic.  Several components (whatever one tick left pending) re-arm
        in uid order, as one solve over their union would; :meth:`_apply`
        writes the rates.
        """
        self.solve_rounds += len(plans)
        if len(plans) == 1:
            ((plan, level),) = plans
            moves = self._rates(plan, level)
        else:
            moves = sorted(
                chain.from_iterable(starmap(self._rates, plans)),
                key=lambda move: move[0].uid,
            )
        self._apply(moves)

    def _apply(self, moves: "Iterable[tuple[Flow, float]]") -> None:
        """Write each ``(flow, rate)`` move, settling and re-arming only the
        flows whose rate materially changed, then re-arm the timer."""
        env_now = self.env.now
        for flow, rate in moves:
            # Re-arm only flows whose rate actually moved: a completion
            # elsewhere in the component usually leaves most flows
            # untouched, and their pending completion entries stay valid.
            # (The spelled out abs/max keep this hot loop free of function
            # calls; the tolerance is abs(rate - old) <= _EPS * max(rate,
            # old, 1.0).)
            old = flow.rate_bps
            if rate == old:
                continue
            hi = rate if rate > old else old
            diff = rate - old if rate > old else old - rate
            if diff <= _EPS * (hi if hi > 1.0 else 1.0):
                continue
            # Settle the bytes sent at the old rate before writing the new
            # one; a flow whose rate holds keeps a linear account.
            elapsed = env_now - flow._last_update
            if elapsed > 0.0:
                rb = flow.remaining_bits - flow.rate_bps * elapsed
                flow.remaining_bits = rb if rb >= _RESIDUE_BITS else 0.0
                flow._last_update = env_now
            flow.rate_bps = rate
            if flow.on_rate_change is not None:
                flow.on_rate_change(flow)
            if rate <= _EPS:
                # Fully capped out or starved; cannot finish until the next
                # recomputation changes its rate.
                flow._arm = 0
                continue
            self._arm_completion(flow, flow.remaining_bits / rate)
        self._arm_timer()

    def _rates(self, plan: "_ComponentPlan", level: float) -> "Iterable[tuple[Flow, float]]":
        """``(flow, rate)`` for each live flow of ``plan``, in uid order."""
        n_dead = len(plan.flows) - len(plan.flow_index)
        if n_dead > 64 and n_dead * 2 > len(plan.flows):
            plan.compact()
        flows = plan.flows
        live = list(plan.flow_index.values())
        rates = self._fill(plan, live, level)
        return zip(map(flows.__getitem__, live), map(rates.__getitem__, live))

    def _fill(self, plan: "_ComponentPlan", live: "list[int]", level: float = 0.0) -> "list[float]":
        """Progressive filling over the component's ``live`` flow indices,
        in uid order; returns the rates by flow index.

        A fill resumed at ``level`` first freezes every flow whose rate or
        cap lies below it (see the module docstring) at its current rate,
        off its pipes' residuals, and then solves the rest from zero.

        The solve is event-driven: while a pipe's active count is stable its
        predicted saturation level ``fill + remaining/count`` is invariant,
        so a lazy heap of saturation predictions replaces the classic
        per-increment scan over every pipe (entries are invalidated by
        count changes and re-pushed).  All bookkeeping runs over the plan's
        integer indices; freezes at a saturating pipe are batched so each
        affected pipe gets one heap push per event, not one per flow.
        """
        flows = plan.flows
        flow_pipes = plan.flow_pipes
        members = plan.members
        n_flows = len(flows)
        # Per-pipe state: residual capacity as of fill level ``fillstamp``.
        remaining = [pipe.capacity_bps for pipe in plan.pipes]
        n_pipes = len(remaining)
        fillstamp = [0.0] * n_pipes
        count = plan.live_count[:]
        # Dead slots start out frozen so both event loops skip them.
        frozen = bytearray(plan.dead)
        rates = [0.0] * n_flows
        n_active = len(live)
        # Flows freeze at their cap in (cap, flow index) order, which is
        # (cap, uid) order because ``flows`` is uid-sorted.
        capped = plan.caps
        cap_idx = 0
        if level > 0.0:
            threshold = level * (1.0 - _LEVEL_MARGIN)
            for fidx in live:
                flow = flows[fidx]
                rate = flow.rate_bps
                if rate < threshold or flow.rate_cap_bps < threshold:
                    frozen[fidx] = 1
                    rates[fidx] = rate
                    n_active -= 1
                    for q in flow_pipes[fidx]:
                        remaining[q] -= rate
                        count[q] -= 1
            # every cap below the threshold belongs to a pre-frozen flow
            cap_idx = bisect_left(capped, (threshold,))
        self.fill_visits += n_active
        #: heap of (saturation level, pipe index, count stamp); an entry is
        #: live iff its stamp equals the pipe's current count.  Ties break
        #: on the pipe index — first-touch order, deterministic.
        pipe_events = [
            (remaining[i] / count[i], i, count[i])
            for i in range(n_pipes)
            if count[i]
        ]
        heapq.heapify(pipe_events)
        n_caps = len(capped)
        fill = 0.0
        heappush = heapq.heappush
        heappop = heapq.heappop
        # Per batch of freezes, by pipe index: flows removed and the sum of
        # their caps; ``touched`` lists the pipes in first-touch order.
        removed = [0] * n_pipes
        capsum = [0.0] * n_pipes
        touched: list[int] = []

        while n_active:
            while pipe_events and pipe_events[0][2] != count[pipe_events[0][1]]:
                heappop(pipe_events)
            pipe_level = pipe_events[0][0] if pipe_events else math.inf
            while cap_idx < n_caps and frozen[capped[cap_idx][1]]:
                cap_idx += 1
            if cap_idx < n_caps and capped[cap_idx][0] < pipe_level:
                # Freezing a flow at its cap only *raises* the saturation
                # prediction of every pipe it crosses, so every cap event
                # strictly below the next pipe event can be frozen in one
                # batch; each touched pipe is then settled and re-predicted
                # once (per-flow heap churn was the old solver's hot spot).
                while cap_idx < n_caps and capped[cap_idx][0] < pipe_level:
                    cap, fidx = capped[cap_idx]
                    cap_idx += 1
                    if frozen[fidx]:
                        continue
                    frozen[fidx] = 1
                    rates[fidx] = cap
                    n_active -= 1
                    if cap > fill:
                        fill = cap
                    for q in flow_pipes[fidx]:
                        if removed[q]:
                            removed[q] += 1
                            capsum[q] += cap
                        else:
                            removed[q] = 1
                            capsum[q] = cap
                            touched.append(q)
                for q in touched:
                    c = count[q]
                    # Account everyone up to ``fill``, then hand back what
                    # the batch's flows did not consume past their caps.
                    remaining[q] -= (fill - fillstamp[q]) * c
                    remaining[q] += removed[q] * fill - capsum[q]
                    fillstamp[q] = fill
                    c -= removed[q]
                    removed[q] = 0
                    count[q] = c
                    if c > 0:
                        heappush(pipe_events, (fill + remaining[q] / c, q, c))
            else:
                if pipe_level == math.inf:
                    # Only uncapped flows on unconstrained pipes — impossible,
                    # every flow crosses at least one finite pipe.
                    raise NetworkConfigError("progressive filling diverged")
                level, pidx, _ = heappop(pipe_events)
                if level > fill:
                    fill = level
                # Batch-freeze every still-active flow on the saturated
                # pipe, accumulating per-pipe count deltas so each other
                # pipe is settled and re-predicted once.
                for fidx in members[pidx]:
                    if frozen[fidx]:
                        continue
                    frozen[fidx] = 1
                    rates[fidx] = fill
                    n_active -= 1
                    for q in flow_pipes[fidx]:
                        if removed[q]:
                            removed[q] += 1
                        else:
                            removed[q] = 1
                            touched.append(q)
                for q in touched:
                    c = count[q]
                    remaining[q] -= (fill - fillstamp[q]) * c
                    fillstamp[q] = fill
                    c -= removed[q]
                    removed[q] = 0
                    count[q] = c
                    if c > 0:
                        heappush(pipe_events, (fill + remaining[q] / c, q, c))
            touched.clear()
        return rates

    def _arm_completion(self, flow: Flow, eta: float) -> None:
        """Due ``flow`` to finish ``eta`` seconds from now, on the tick a
        ``timeout(eta)`` would fire; supersedes its previous entry."""
        self._arm_order += 1
        order = flow._arm = self._arm_order
        due = self._due
        heapq.heappush(due, (self.env.now_ticks + delay_to_ticks(eta), order, flow))
        if len(due) > 2 * len(self.flows) + 64:
            # Stale entries outnumber live flows: drop them all at once so
            # the heap stays proportional to the live population.
            due[:] = [entry for entry in due if entry[2]._arm == entry[1]]
            heapq.heapify(due)

    def _arm_timer(self) -> None:
        """Queue the engine callback at the earliest live completion (once
        per tick: a callback already queued there covers it)."""
        if self._firing:
            return
        due = self._due
        while due and due[0][2]._arm != due[0][1]:
            heapq.heappop(due)
        if due:
            tick = due[0][0]
            if tick not in self._timer_ticks:
                self._timer_ticks.add(tick)
                self.env.call_at(tick, self._on_timer)

    def _on_timer(self) -> None:
        """Finish every flow due now, in arm order, then solve and re-arm once."""
        now = self.env.now_ticks
        self._timer_ticks.discard(now)
        due = self._due
        self._firing = True
        while due and due[0][0] <= now:
            _, arm, flow = heapq.heappop(due)
            if arm != flow._arm:
                continue  # superseded by a later solve, or already finished
            self._settle(flow)
            if flow.remaining_bits > 0.0:
                # A rate change between arming and firing left real
                # payload; re-arm the tail (never with a zero delay).
                eta = max(flow.remaining_bits / flow.rate_bps, _MIN_ETA)
                self._arm_completion(flow, eta)
                continue
            flow.done.succeed()
            self._depart(flow)
        self._firing = False
        self._flush()
