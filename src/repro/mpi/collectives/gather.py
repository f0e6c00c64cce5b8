"""Gather algorithms.

``binomial`` aggregates along a tree (message sizes grow with the
subtree), matching the MPICH default.  ``hierarchical`` (§5 future work)
collects each site into its leader first, so only one bundled message per
non-root site crosses the WAN.
"""

from __future__ import annotations

from typing import Any

from repro.mpi.collectives.hierarchy import hier_span, local_gather, site_layout


def gather_binomial(comm, tag: int, root: int, nbytes_each: int, payload: Any):
    size, rank = comm.size, comm.rank
    vrank = (rank - root) % size
    # Each rank accumulates the blocks of its binomial subtree, keyed by
    # vrank, then forwards the bundle to its parent.
    bundle: dict[int, Any] = {vrank: payload}
    mask = 1
    while mask < size:
        if vrank & mask:
            parent = (vrank - mask + root) % size
            yield from comm._csend(parent, nbytes_each * len(bundle), bundle, tag)
            break
        child = vrank + mask
        if child < size:
            received, _ = yield from comm._crecv((child + root) % size, tag)
            bundle.update(received)
        mask <<= 1
    if rank != root:
        return None
    # bundle is keyed by vrank; emit in absolute rank order.
    return [bundle[(r - root) % size] for r in range(size)]


def gather_hierarchical(comm, tag: int, root: int, nbytes_each: int, payload: Any):
    """LAN-local gather to each site leader -> one WAN bundle per site."""
    layout = site_layout(comm, root)
    if layout.single_site:
        result = yield from gather_binomial(comm, tag, root, nbytes_each, payload)
        return result
    size, rank = comm.size, comm.rank

    # Phase 1 (LAN): each site bundles into its leader, keyed by global rank.
    t_lan = comm.env.now
    bundle = yield from local_gather(comm, tag, layout, nbytes_each, payload)
    if len(layout.local) > 1:
        hier_span(comm, "gather", "lan", t_lan, nbytes_each, layout)

    # Phase 2 (WAN): non-root leaders ship their whole site bundle to the
    # root (its own site's leader) in leader-election order.
    t_wan = comm.env.now
    if rank == root:
        for leader in layout.leaders:
            if leader != root:
                received, _ = yield from comm._crecv(leader, tag)
                bundle.update(received)
    elif layout.is_leader:
        yield from comm._csend(root, nbytes_each * len(bundle), bundle, tag)
    if layout.is_leader:
        hier_span(comm, "gather", "wan", t_wan, nbytes_each, layout)
    if rank != root:
        return None
    return [bundle[r] for r in range(size)]

