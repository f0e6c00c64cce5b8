"""Post-hoc span analytics over merged telemetry payloads.

The runner merges every shard's telemetry into one payload
(:func:`repro.obs.runtime.merge_payloads`); this module turns that
payload into the aggregates the flamegraph and diagnosis layers consume:

* hierarchical span trees with self/cumulative **tick** accounting
  (one tick = one virtual microsecond, kept integral so aggregates are
  exact and platform-independent),
* collapsed-stack totals (``a;b;c N``) for flamegraph rendering,
* a per-site-pair WAN-time matrix over the ``tcp.transmit`` and
  ``rndv.*`` spans that carry ``src_site``/``dst_site`` tags,
* a critical-path extractor naming the longest chain in an experiment.

Every job restarts the virtual clock at zero, so spans of consecutive
jobs on one track overlap in time.  ``MpiJob.run`` marks each start with
an ``mpi.job.begin`` instant; :func:`split_episodes` cuts a track's
record stream at those markers and tags each episode with the
implementation named there.  All aggregation is a pure function of the
payload: the results are byte-identical whether the payload came from a
serial campaign or ``--jobs N`` workers, and permutation-invariant in
the track merge order (aggregates are keyed sums, never list order).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

__all__ = [
    "SpanNode",
    "Episode",
    "Frame",
    "SitePairStats",
    "ticks",
    "split_episodes",
    "build_forest",
    "frame_stats",
    "collapsed_stacks",
    "site_pair_matrix",
    "critical_path",
    "npb_phase_totals",
    "job_makespans",
    "rollup",
]

#: virtual microseconds per virtual second
TICKS_PER_SECOND = 1_000_000

#: float-noise tolerance for interval containment (absolute, seconds)
EPS = 1e-9


def ticks(seconds: float) -> int:
    """Integer virtual-microsecond ticks for a duration in seconds."""
    return round(float(seconds) * TICKS_PER_SECOND)


@dataclass
class SpanNode:
    """One completed span, with the children containment assigned it."""

    name: str
    cat: str
    lane: str
    ts: float
    dur: float
    args: Optional[dict]
    children: list["SpanNode"] = field(default_factory=list)

    @property
    def end(self) -> float:
        return self.ts + self.dur

    @property
    def ticks(self) -> int:
        return ticks(self.dur)


@dataclass
class Episode:
    """One job's slice of a track's record stream."""

    index: int
    #: args of the opening ``mpi.job.begin`` instant ({} before the first
    #: marker — e.g. a raw TCP experiment with no MPI job)
    meta: dict
    records: list

    @property
    def impl(self) -> str:
        return str(self.meta.get("impl", ""))


def split_episodes(events: list) -> list[Episode]:
    """Cut one track's record stream at ``mpi.job.begin`` markers.

    Records before the first marker form episode 0 with empty meta; a
    leading marker opens episode 0 directly.  Only non-empty episodes are
    returned, re-indexed consecutively.
    """
    episodes: list[Episode] = []
    meta: dict = {}
    current: list = []

    def flush():
        if current:
            episodes.append(Episode(len(episodes), meta, list(current)))

    for event in events:
        if event[0] == "i" and event[3] == "mpi.job.begin":
            flush()
            meta = dict(event[6] or {})
            current = []
        else:
            current.append(event)
    flush()
    return episodes


def _contained(inner: SpanNode, outer: SpanNode) -> bool:
    if inner.ts < outer.ts - EPS or inner.end > outer.end + EPS:
        return False
    # A zero-duration span sitting exactly on a later span's start
    # belongs to the instant *before* it (the sim ran it first); leave
    # it a root rather than adopting it into a phase it preceded.
    if inner.dur == 0.0 and abs(inner.ts - outer.ts) <= EPS:
        return False
    return True


def build_forest(records: list, lane: Optional[str] = None) -> list[SpanNode]:
    """Containment forest over the complete-span records of one episode.

    ``records`` must be in record order, which within an episode is span
    *completion* order: children complete before their parents, so each
    arriving span adopts the contiguous suffix of earlier roots its
    interval contains.  With ``lane`` set, only that lane's spans are
    considered (per-lane trees — the flamegraph view); with ``lane``
    ``None`` all lanes merge into one forest (the critical-path view,
    where e.g. the closing ``mpi.job`` span adopts every rank's
    top-level spans).
    """
    roots: list[SpanNode] = []
    for event in records:
        if event[0] != "X":
            continue
        if lane is not None and event[5] != lane:
            continue
        node = SpanNode(
            name=event[3], cat=event[4], lane=event[5],
            ts=float(event[1]), dur=float(event[2]), args=event[6],
        )
        adopted: list[SpanNode] = []
        while roots and _contained(roots[-1], node):
            adopted.append(roots.pop())
        adopted.reverse()
        node.children = adopted
        roots.append(node)
    return roots


@dataclass
class Frame:
    """Aggregated stats of one stack path (``a;b;c``)."""

    path: tuple[str, ...]
    calls: int = 0
    cum_ticks: int = 0
    self_ticks: int = 0

    @property
    def key(self) -> str:
        return ";".join(self.path)


def _iter_episodes(payload: dict, tracks=None) -> Iterator[tuple[str, Episode]]:
    for track in sorted(payload.get("tracks", {})):
        if tracks is not None and track not in tracks:
            continue
        for episode in split_episodes(payload["tracks"][track]["events"]):
            yield track, episode


def _lanes_in_order(records: list) -> list[str]:
    seen: dict[str, None] = {}
    for event in records:
        if event[0] == "X":
            seen.setdefault(event[5], None)
    return list(seen)


def frame_stats(payload: dict, tracks=None) -> dict[str, Frame]:
    """Per-path frame aggregation across all tracks, episodes and lanes.

    Trees are built per lane (the flamegraph view: one rank-lane is one
    "thread"), then folded into one table keyed by the semicolon-joined
    name path.  Keyed summation makes the result independent of track
    merge order and of serial-vs-parallel campaign execution.
    """
    frames: dict[str, Frame] = {}

    def walk(node: SpanNode, prefix: tuple[str, ...]):
        path = prefix + (node.name,)
        frame = frames.get(";".join(path))
        if frame is None:
            frame = Frame(path)
            frames[frame.key] = frame
        child_ticks = 0
        for child in node.children:
            child_ticks += child.ticks
            walk(child, path)
        frame.calls += 1
        frame.cum_ticks += node.ticks
        frame.self_ticks += max(0, node.ticks - child_ticks)

    for _track, episode in _iter_episodes(payload, tracks):
        for lane in _lanes_in_order(episode.records):
            for root in build_forest(episode.records, lane=lane):
                walk(root, ())
    return frames


def collapsed_stacks(payload: dict, tracks=None) -> dict[str, int]:
    """Standard collapsed-stack totals: path -> self ticks (positive only)."""
    return {
        key: frame.self_ticks
        for key, frame in frame_stats(payload, tracks).items()
        if frame.self_ticks > 0
    }


@dataclass
class SitePairStats:
    """WAN-time matrix cell for one ``(src_site, dst_site)`` pair."""

    transfers: int = 0          # window-limited tcp.transmit spans
    bytes: int = 0              # payload bytes of those transfers
    transmit_ticks: int = 0     # wall ticks spent in them
    retransmits: int = 0        # congestion-loss events during them
    handshakes: int = 0         # rndv.handshake spans
    handshake_ticks: int = 0    # wall ticks of the handshake round trips


def site_pair_matrix(
    payload: dict, tracks=None, impl: Optional[str] = None
) -> dict[tuple[str, str], SitePairStats]:
    """Aggregate site-tagged spans into the WAN-time matrix.

    ``tcp.transmit`` rows carry the wire truth (bytes, wall,
    retransmits); ``rndv.handshake`` rows add the paper's §4.2.2 cost —
    the extra round trip per rendezvous message.  ``impl`` restricts the
    aggregation to episodes of one implementation.
    """
    matrix: dict[tuple[str, str], SitePairStats] = {}
    for _track, episode in _iter_episodes(payload, tracks):
        if impl is not None and episode.impl != impl:
            continue
        for event in episode.records:
            if event[0] != "X":
                continue
            args = event[6]
            if not args or "src_site" not in args:
                continue
            pair = (str(args["src_site"]), str(args["dst_site"]))
            cell = matrix.get(pair)
            if cell is None:
                cell = matrix[pair] = SitePairStats()
            name = event[3]
            if name == "tcp.transmit":
                cell.transfers += 1
                cell.bytes += int(args.get("bytes", 0))
                cell.transmit_ticks += ticks(event[2])
                cell.retransmits += int(args.get("retransmits", 0))
            elif name == "rndv.handshake":
                cell.handshakes += 1
                cell.handshake_ticks += ticks(event[2])
    return matrix


def npb_phase_totals(payload: dict, tracks=None) -> dict[tuple[str, str, str], int]:
    """Cumulative ticks of every ``npb.phase.<name>`` span, keyed
    ``(track, impl, phase)`` — rank-time summed over all lanes.

    Phases never nest in each other, so a flat record scan is exact (no
    double counting) and independent of record order.
    """
    totals: dict[tuple[str, str, str], int] = {}
    for track, episode in _iter_episodes(payload, tracks):
        for event in episode.records:
            if event[0] != "X" or not event[3].startswith("npb.phase."):
                continue
            key = (track, episode.impl, event[3][len("npb.phase."):])
            totals[key] = totals.get(key, 0) + ticks(event[2])
    return totals


def job_makespans(payload: dict, tracks=None) -> dict[tuple[str, str], int]:
    """``mpi.job`` makespans in ticks, keyed ``(track, impl)`` (summed if
    one implementation runs several jobs on a track)."""
    spans: dict[tuple[str, str], int] = {}
    for track, episode in _iter_episodes(payload, tracks):
        for event in episode.records:
            if event[0] == "X" and event[3] == "mpi.job":
                key = (track, episode.impl)
                spans[key] = spans.get(key, 0) + ticks(event[2])
    return spans


def critical_path(payload: dict, tracks=None) -> list[dict]:
    """The longest chain in the span DAG of the longest episode.

    Per episode, all lanes merge into one containment forest (ties
    resolved deterministically by record order); the walk starts at the
    globally longest root span and repeatedly descends into the child
    that finishes *last* — the span whose completion gates the parent's
    (ties: more ticks, then name/lane).  Returns one dict per hop:
    ``{name, lane, track, ticks, depth}``.
    """
    best_root: Optional[SpanNode] = None
    best_track = ""
    for track, episode in _iter_episodes(payload, tracks):
        for root in build_forest(episode.records):
            if best_root is None or root.ticks > best_root.ticks:
                best_root, best_track = root, track
    if best_root is None:
        return []
    chain: list[dict] = []
    node: Optional[SpanNode] = best_root
    depth = 0
    while node is not None:
        chain.append(
            {
                "name": node.name,
                "lane": node.lane,
                "track": best_track,
                "ticks": node.ticks,
                "depth": depth,
            }
        )
        node = max(
            node.children,
            key=lambda c: (c.end, c.ticks, c.name, c.lane),
            default=None,
        )
        depth += 1
    return chain


def rollup(payload: dict, top: int = 5) -> dict:
    """Compact campaign-manifest summary of one run's span analytics:
    span count, the top self-tick frames, and the WAN site-pair totals."""
    frames = frame_stats(payload)
    ranked = sorted(
        frames.values(), key=lambda f: (-f.self_ticks, f.key)
    )[:top]
    wan = {
        f"{src}->{dst}": {
            "bytes": cell.bytes,
            "transmit_ticks": cell.transmit_ticks,
            "retransmits": cell.retransmits,
            "handshakes": cell.handshakes,
        }
        for (src, dst), cell in sorted(site_pair_matrix(payload).items())
        if src != dst
    }
    return {
        "spans": sum(f.calls for f in frames.values()),
        "top_self": [[f.key, f.self_ticks] for f in ranked],
        "wan": wan,
    }
