"""Message tracing: the instrumented-MPI view the paper used for Table 2.

The trace aggregates — it never stores per-message records — so tracing a
full NAS run (10^6 messages) costs O(distinct sizes) memory.  Counters are
kept separately for user point-to-point traffic and for the messages
generated inside collective algorithms, plus a counter of logical
collective calls per primitive, which is exactly the decomposition of the
paper's Table 2 ("P. to P." vs "Collective" benchmarks).
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field

from repro.mpi.constants import COLLECTIVE_CONTEXT, POINT_TO_POINT_CONTEXT
from repro.units import fmt_bytes


class EventTraceHasher:
    """Order-sensitive hash of an event schedule.

    Install with :func:`repro.sim.core.install_trace_sink`; every processed
    queue entry folds ``(time, priority, seq, event kind, event name)`` into
    a running blake2b digest.  Two runs of the same seeded experiment must
    produce the same digest — that is the determinism contract the
    sanitizer (``repro sanitize``) enforces.  Event identity is hashed by
    *type name and process name*, never ``repr`` (which contains ``id()``
    and would differ between runs by construction).
    """

    def __init__(self) -> None:
        self._hash = hashlib.blake2b(digest_size=16)
        #: number of events folded in (a cheap first-difference diagnostic)
        self.events = 0

    def __call__(self, time: float, priority: int, seq: int, event: object) -> None:
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

    @classmethod
    def combine(cls, named_digests: "dict[str, str]", text: str = "") -> str:
        """Canonical digest over per-shard digests.

        A sharded experiment produces one event-trace digest per shard; the
        experiment-level digest folds them in *sorted shard-key order* (never
        completion order) plus the merged rendered text, so the combined hash
        is independent of worker scheduling.  It is, by construction, a
        different value from the digest of an unsharded run — an artifact's
        ``sharded`` flag says which kind it carries.
        """
        hasher = cls()
        for key in sorted(named_digests):
            hasher.update_text(f"{key}|{named_digests[key]}\n")
        if text:
            hasher.update_text(text)
        return hasher.hexdigest()


@dataclass
class TrafficSummary:
    """Aggregated view of one context's traffic."""

    messages: int
    bytes: float
    min_size: int
    max_size: int

    @property
    def mean_size(self) -> float:
        return self.bytes / self.messages if self.messages else 0.0


class MessageTrace:
    """Aggregating message statistics for one MPI job."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        #: Counter[(context, nbytes)] -> message count
        self.size_counts: Counter = Counter()
        #: Counter[collective primitive name] -> call count (per rank calls)
        self.collective_calls: Counter = Counter()
        #: Counter[(src, dst)] -> messages (for placement diagnostics)
        self.pair_counts: Counter = Counter()
        #: messages crossing a WAN link, and the payload bytes they carry
        self.inter_site_messages: int = 0
        self.inter_site_bytes: int = 0

    # -- recording -------------------------------------------------------------
    def record_p2p(self, src: int, dst: int, tag: int, nbytes: int, context: str) -> None:
        if not self.enabled:
            return
        self.size_counts[(context, nbytes)] += 1
        self.pair_counts[(src, dst)] += 1

    def record_inter_site(self, nbytes: int) -> None:
        if self.enabled:
            self.inter_site_messages += 1
            self.inter_site_bytes += nbytes

    def record_collective(self, op: str) -> None:
        if self.enabled:
            self.collective_calls[op] += 1

    # -- queries ------------------------------------------------------------------
    def summary(self, context: str) -> TrafficSummary:
        sizes = {
            size: count
            for (ctx, size), count in self.size_counts.items()
            if ctx == context
        }
        if not sizes:
            return TrafficSummary(0, 0.0, 0, 0)
        messages = sum(sizes.values())
        total = sum(size * count for size, count in sizes.items())
        return TrafficSummary(messages, total, min(sizes), max(sizes))

    def p2p_summary(self) -> TrafficSummary:
        return self.summary(POINT_TO_POINT_CONTEXT)

    def collective_summary(self) -> TrafficSummary:
        return self.summary(COLLECTIVE_CONTEXT)

    @property
    def total_messages(self) -> int:
        return sum(self.size_counts.values())

    @property
    def total_bytes(self) -> float:
        return float(sum(size * count for (_, size), count in self.size_counts.items()))

    def size_histogram(self, context: str, bins: int = 8) -> list[tuple[int, int, int]]:
        """Messages per size band: list of ``(lo, hi, count)`` with
        power-of-two bands covering the observed sizes."""
        sizes = [
            (size, count)
            for (ctx, size), count in self.size_counts.items()
            if ctx == context and count
        ]
        if not sizes:
            return []
        bands: Counter = Counter()
        for size, count in sizes:
            lo = 1
            while lo * 2 <= max(size, 1):
                lo *= 2
            bands[lo] += count
        return [(lo, lo * 2 - 1, bands[lo]) for lo in sorted(bands)]

    def dominant_sizes(self, context: str, top: int = 4) -> list[tuple[int, int]]:
        """The ``top`` most frequent message sizes: ``[(nbytes, count)]`` —
        this is the paper's Table 2 notation ("126479 * 8 B + ...")."""
        sizes = Counter()
        for (ctx, size), count in self.size_counts.items():
            if ctx == context:
                sizes[size] += count
        return sizes.most_common(top)

    def describe(self, context: str = POINT_TO_POINT_CONTEXT) -> str:
        """Human-readable Table-2-style line."""
        parts = [
            f"{count} * {fmt_bytes(size)}"
            for size, count in sorted(self.dominant_sizes(context))
        ]
        return " + ".join(parts) if parts else "(no traffic)"
